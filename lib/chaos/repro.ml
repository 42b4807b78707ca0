module Json = Rtnet_util.Json
module Oracle = Rtnet_analysis.Oracle

let ( let* ) = Result.bind

type ('e, 'c) t = {
  re_env : 'e;
  re_cand : 'c;
  re_verdict : Oracle.verdict;
  re_fingerprint : string;
  re_note : string;
}

let make ~env ~cand ~(report : Candidate.report) ~note =
  {
    re_env = env;
    re_cand = cand;
    re_verdict = report.Candidate.rp_verdict;
    re_fingerprint = report.Candidate.rp_fingerprint;
    re_note = note;
  }

let version_key prefix = Subject.slug prefix ^ "chaos_repro_version"

let to_json (type e c) ((module S) : (e, c) Subject.t) t =
  Json.Obj
    (((version_key S.prefix, Json.Int S.version) :: S.env_to_json t.re_env)
    @ S.cand_to_json t.re_cand
    @ [
        ("verdict", Oracle.to_json t.re_verdict);
        ("fingerprint", Json.String t.re_fingerprint);
        ("note", Json.String t.re_note);
      ])

let of_json (type e c) ((module S) : (e, c) Subject.t) j =
  let* v = Result.bind (Json.field (version_key S.prefix) j) Json.get_int in
  if v < S.min_version || v > S.version then
    Error (Printf.sprintf "unsupported %schaos repro version %d" S.prefix v)
  else
    let* env = S.env_of_json ~version:v j in
    let* cand = S.cand_of_json env j in
    let* verdict = Result.bind (Json.field "verdict" j) Oracle.of_json in
    let* fingerprint = Result.bind (Json.field "fingerprint" j) Json.get_string in
    let* note =
      match Json.member "note" j with
      | None -> Ok ""
      | Some n -> Json.get_string n
    in
    Ok
      {
        re_env = env;
        re_cand = cand;
        re_verdict = verdict;
        re_fingerprint = fingerprint;
        re_note = note;
      }

let save subject ~path t = Json.to_file path (to_json subject t)

let in_file path decoded =
  Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) decoded

let load subject ~path =
  let* j = Json.parse_file path in
  in_file path (of_json subject j)

type replay = {
  rr_report : Candidate.report;
  rr_verdict_ok : bool;
  rr_fingerprint_ok : bool;
}

let verify t (report : Candidate.report) =
  {
    rr_report = report;
    rr_verdict_ok = report.Candidate.rp_verdict = t.re_verdict;
    rr_fingerprint_ok = String.equal report.Candidate.rp_fingerprint t.re_fingerprint;
  }

let replay (type e c) ((module S) : (e, c) Subject.t) t =
  verify t (S.run t.re_env t.re_cand)

type any = Any : ('e, 'c) Subject.kind * ('e, 'c) t -> any

let load_any ~path =
  let* j = Json.parse_file path in
  let decode : type e c. (e, c) Subject.kind -> (any, string) result =
   fun kind -> Result.map (fun t -> Any (kind, t)) (of_json (Subject.of_kind kind) j)
  in
  let declares prefix = Json.member (version_key prefix) j <> None in
  in_file path
    (if declares Subject.Topo.prefix then decode Subject.Topo
     else if declares Subject.Admit.prefix then decode Subject.Admit
     else decode Subject.Plain)
