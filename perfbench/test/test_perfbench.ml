(* Tests of the benchmark's own code: the percentile rule, metric-name
   syntax and the BENCHMARK.json catalogue, the churn generator's
   resident-set property, and digest reproducibility per seed. *)

open Perfbench
module Json = Rtnet_util.Json
module Engine = Rtnet_admit.Engine
module Request = Rtnet_admit.Request

let test_min_samples () =
  Alcotest.(check int) "p50" 20 (Quantile.min_samples 0.5);
  Alcotest.(check int) "p99" 1000 (Quantile.min_samples 0.99);
  (* 0.999 is not exact in binary: Summary's rank for p99.9 of 10000
     samples is 9991, so one more sample is needed for ten beyond *)
  Alcotest.(check int) "p99.9" 10001 (Quantile.min_samples 0.999);
  Alcotest.check_raises "p100" (Invalid_argument "Quantile.min_samples")
    (fun () -> ignore (Quantile.min_samples 1.))

let test_percentile () =
  let xs = Array.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50" 50 (Quantile.percentile 0.5 xs);
  Alcotest.(check int) "p99" 99 (Quantile.percentile 0.99 xs);
  Alcotest.(check int) "p1" 1 (Quantile.percentile 0.01 xs);
  Alcotest.(check int) "single" 7 (Quantile.percentile 0.5 [| 7 |]);
  Alcotest.(check (float 0.)) "median of floats" 7. (Quantile.median [| 7. |]);
  Alcotest.(check (float 0.)) "even count takes the lower" 2.
    (Quantile.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check int) "same rank as median" 2
    (Quantile.percentile 0.5 [| 4; 1; 3; 2 |])

let test_tail_needs_samples () =
  let xs n = Array.init n Fun.id in
  List.iter
    (fun p ->
      let n = Quantile.min_samples p in
      let a = xs n in
      let v = Quantile.tail p a in
      Alcotest.(check int)
        (Printf.sprintf "ten beyond p%g" (100. *. p))
        10
        (List.length (List.filter (fun x -> x > v) (Array.to_list a)));
      Alcotest.(check bool)
        (Printf.sprintf "p%g of %d refused" (100. *. p) (n - 1))
        true
        (match Quantile.tail p (xs (n - 1)) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0.99; 0.999 ]

let test_names () =
  List.iter
    (fun (n, ok) -> Alcotest.(check bool) n ok (Report.valid_name n))
    [
      ("setup_s", true);
      ("mac.slot_ns_p50", true);
      ("9lives", true);
      ("", false);
      ("_hidden", false);
      (".dot", false);
      ("has space", false);
      ("slash/no", false);
      (String.make 64 'a', true);
      (String.make 65 'a', false);
    ];
  List.iter
    (fun (u, ok) -> Alcotest.(check bool) u ok (Report.valid_unit u))
    [ ("ms", true); ("1/s", true); ("%", true); ("MB/s", true); ("", false);
      ("a b", false); (String.make 17 'x', false) ]

let all_names =
  List.map (fun (n, _, _) -> n) Catalogue.end_to_end
  @ List.map fst Catalogue.per_layer

let test_catalogue () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Report.valid_name n))
    all_names;
  Alcotest.(check int) "names used once"
    (List.length all_names)
    (List.length (List.sort_uniq compare all_names))

(* BENCHMARK.json declares exactly the catalogue, in the same order. *)
let test_benchmark_json () =
  let j =
    match Json.parse_file "../../BENCHMARK.json" with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let get k o =
    match Json.member k o with Some v -> v | None -> Alcotest.fail ("no " ^ k)
  in
  let str k o =
    match get k o with
    | Json.String s -> s
    | _ -> Alcotest.fail (k ^ " not a string")
  in
  let list k =
    match get k j with Json.List l -> l | _ -> Alcotest.fail (k ^ " not a list")
  in
  Alcotest.(check (list (triple string string string)))
    "end_to_end"
    Catalogue.end_to_end
    (List.map
       (fun m -> (str "name" m, str "unit" m, str "better" m))
       (list "end_to_end"));
  Alcotest.(check (list (pair string string)))
    "per_layer" Catalogue.per_layer
    (List.map (fun m -> (str "name" m, str "unit" m)) (list "per_layer"));
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun s -> s.Sim.name) Sim.specs @ [ Admit.name ])
    (List.map (str "name") (list "workloads"))

let test_report_line () =
  let line =
    Report.to_line ~correct:true ~attempted:3 ~failed:0
      (Catalogue.render ~trace:false
         [ ("setup_s", 0.5); ("work_per_s", 1e5); ("result_s", 2.5e-5);
           ("peak_heap_mb", 10.25) ])
  in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj kvs) ->
    Alcotest.(check (list string)) "keys"
      [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs);
    (match List.assoc "metrics" kvs with
    | Json.Obj ms ->
      Alcotest.(check int) "every end-to-end metric"
        (List.length Catalogue.end_to_end) (List.length ms)
    | _ -> Alcotest.fail "metrics not an object")
  | Ok _ -> Alcotest.fail "not an object"

let test_render_rejects () =
  Alcotest.(check bool) "unmeasured end-to-end metric" true
    (match Catalogue.render ~trace:false [ ("setup_s", 1.) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown metric" true
    (match Catalogue.render ~trace:true [ ("no.such", 1.) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "absent layers are zero"
    (List.length Catalogue.per_layer)
    (List.length (Catalogue.render ~trace:true []))

(* After the ramp the admitted set stays in 10²–10³ and some adds are
   rejected as infeasible. *)
let test_resident_set () =
  List.iter
    (fun seed ->
      let tr = Churn.trace ~seed ~requests:3000 in
      let eng = Admit.open_engine tr in
      let infeasible = ref 0 in
      List.iteri
        (fun i r ->
          (match Engine.decide eng r with
          | Engine.Rejected (Engine.Infeasible _) -> incr infeasible
          | _ -> ());
          if i >= 500 then begin
            let n = Engine.size eng in
            if n < 100 || n > 1000 then
              Alcotest.failf "seed %d: %d resident after request %d" seed n i
          end)
        tr.Request.tr_requests;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: infeasible rejections" seed)
        true (!infeasible > 0))
    [ 1; 2; 3 ]

let test_churn_deterministic () =
  let a = Churn.trace ~seed:5 ~requests:400 in
  let b = Churn.trace ~seed:5 ~requests:400 in
  Alcotest.(check string) "same seed, same trace" (Request.trace_hash a)
    (Request.trace_hash b);
  let c = Churn.trace ~seed:6 ~requests:400 in
  Alcotest.(check bool) "other seed, other trace" true
    (Request.trace_hash a <> Request.trace_hash c)

let test_sim_digest () =
  List.iter
    (fun spec ->
      let spec = { spec with Sim.horizon_ms = 4 } in
      let run seed =
        let bounds = Sim.bounds spec in
        let r = Sim.replicate spec ~bounds ~seed ~trace:false in
        r.Sim.digest
      in
      Alcotest.(check string) (spec.Sim.name ^ " reproduces") (run 3) (run 3);
      Alcotest.(check bool) (spec.Sim.name ^ " depends on the seed") true
        (run 3 <> run 4))
    [ Sim.dense; Sim.faulted ]

(* The calibration kernel must not depend on the heap or GC settings
   of the program under test. *)
let test_kernel_allocates_nothing () =
  ignore (Calib.kernel ());
  let w0 = Gc.minor_words () in
  ignore (Calib.kernel ());
  let words = Gc.minor_words () -. w0 in
  if words > 64. then Alcotest.failf "kernel allocated %.0f words" words

let test_admit_digest () =
  let dir = "admit_digest_tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let paths = Admit.paths ~dir in
  let run seed =
    let r = Admit.replicate ~paths ~seed ~requests:1200 ~trace:false in
    Alcotest.(check (list string)) "no violations" [] r.Admit.violations;
    r.Admit.untraced.Admit.log_digest
  in
  Alcotest.(check string) "admit_churn reproduces" (run 3) (run 3);
  Alcotest.(check bool) "admit_churn depends on the seed" true (run 3 <> run 4)

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "min samples" `Quick test_min_samples;
          Alcotest.test_case "nearest rank" `Quick test_percentile;
          Alcotest.test_case "tail needs ten beyond" `Quick
            test_tail_needs_samples;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name syntax" `Quick test_names;
          Alcotest.test_case "catalogue names" `Quick test_catalogue;
          Alcotest.test_case "BENCHMARK.json matches" `Quick
            test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_report_line;
          Alcotest.test_case "render guards" `Quick test_render_rejects;
          Alcotest.test_case "calibration allocates nothing" `Quick
            test_kernel_allocates_nothing;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "churn resident set" `Quick test_resident_set;
          Alcotest.test_case "churn deterministic" `Quick
            test_churn_deterministic;
          Alcotest.test_case "sim digest per seed" `Quick test_sim_digest;
          Alcotest.test_case "admit digest per seed" `Quick test_admit_digest;
        ] );
    ]
