(* The benchmark's result line: one JSON object with exactly the keys
   correct, attempted, failed and metrics. *)

type metric = { name : string; unit_ : string; value : float }

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("Report.metric: bad name " ^ name);
  if not (valid_unit unit_) then
    invalid_arg ("Report.metric: bad unit " ^ unit_);
  { name; unit_; value }

(* Json.to_string prints each float with all the digits it needs to
   round-trip, and refuses a non-finite one: that is a benchmark bug,
   not a value to print. *)
let to_line ~correct ~attempted ~failed metrics =
  Rtnet_util.Json.(
    to_string
      (Obj
         [
           ("correct", Bool correct);
           ("attempted", Int attempted);
           ("failed", Int failed);
           ( "metrics",
             Obj
               (List.map
                  (fun m ->
                    (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                  metrics) );
         ]))
