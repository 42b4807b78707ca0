module Oracle = Rtnet_analysis.Oracle

type 'c result = { sh_cand : 'c; sh_verdict : Oracle.verdict; sh_checks : int }

(* Split [l] into [n] chunks of near-equal length. *)
let chunks n l =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i = n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k l acc' =
        if k = 0 then (List.rev acc', l)
        else
          match l with
          | [] -> (List.rev acc', [])
          | x :: tl -> take (k - 1) tl (x :: acc')
      in
      let chunk, rest = take size rest [] in
      go (i + 1) rest (chunk :: acc)
  in
  List.filter (fun c -> c <> []) (go 0 l [])

let minus l sub = List.filter (fun x -> not (List.memq x sub)) l

(* Zeller's ddmin over the atom list: try each chunk alone, then each
   complement, refining granularity until no subset reproduces. *)
let ddmin check atoms =
  let rec go atoms n =
    if List.length atoms <= 1 then atoms
    else
      let cs = chunks n atoms in
      match List.find_opt check cs with
      | Some c -> go c 2
      | None -> (
        let complements =
          if n = 2 then [] else List.map (fun c -> minus atoms c) cs
        in
        match List.find_opt check complements with
        | Some comp -> go comp (max (n - 1) 2)
        | None ->
          let len = List.length atoms in
          if n < len then go atoms (min len (2 * n)) else atoms)
  in
  go atoms 2

let run (type e c) ((module S) : (e, c) Subject.t) ~oracle ~target (cand : c) =
  let checks = ref 0 in
  let check c =
    incr checks;
    Oracle.same_class (oracle c) target
  in
  let check_atoms l = l <> [] && check (S.of_atoms cand l) in
  if not (S.atoms cand <> [] && check cand) then
    { sh_cand = cand; sh_verdict = oracle cand; sh_checks = !checks }
  else
    let c = S.of_atoms cand (ddmin check_atoms (S.atoms cand)) in
    let c = S.refine check c in
    { sh_cand = c; sh_verdict = oracle c; sh_checks = !checks }
