module Message = Rtnet_workload.Message

(* Leftist heap keyed by Message.compare_edf.  Each node keeps its
   message pre-wrapped ([head = Some msg]), so [peek] — asked for every
   backlogged source at every contention slot — allocates nothing. *)
type t =
  | Leaf
  | Node of {
      rank : int;
      msg : Message.t;
      head : Message.t option;
      left : t;
      right : t;
    }

let empty = Leaf

let is_empty = function Leaf -> true | Node _ -> false

let rank = function Leaf -> 0 | Node { rank; _ } -> rank

let make msg head a b =
  let ra = rank a and rb = rank b in
  if ra >= rb then Node { rank = rb + 1; msg; head; left = a; right = b }
  else Node { rank = ra + 1; msg; head; left = b; right = a }

let rec merge a b =
  match (a, b) with
  | Leaf, q | q, Leaf -> q
  | Node na, Node nb ->
    if Message.compare_edf na.msg nb.msg <= 0 then
      make na.msg na.head na.left (merge na.right b)
    else make nb.msg nb.head nb.left (merge a nb.right)

let insert q m =
  merge q (Node { rank = 1; msg = m; head = Some m; left = Leaf; right = Leaf })

let peek = function Leaf -> None | Node { head; _ } -> head

let pop = function
  | Leaf -> None
  | Node { msg; left; right; _ } -> Some (msg, merge left right)

let rec size = function
  | Leaf -> 0
  | Node { left; right; _ } -> 1 + size left + size right

let of_list ms = List.fold_left insert empty ms

let to_sorted_list q =
  let rec go acc q =
    match pop q with None -> List.rev acc | Some (m, q) -> go (m :: acc) q
  in
  go [] q
