(* Seeded admission churn that keeps 10²–10³ flows resident.

   Generator.sample_churn draws flow ids from a small pool, so its
   streams hold only 10–20 flows at any size.  This generator instead
   adds fresh flows until [live_target] ids are outstanding, then
   churns them (add, remove, modify) around that level.  Most flows
   have loose deadlines that stay feasible well past that level, so the
   resident count tracks the target; once the ramp is over, a
   [tight_percent] share of adds carries a deadline far below B_DDCR
   at that population and is rejected as infeasible.  (Tight flows are
   held back during the ramp: admitted into a small set, one would
   make every later add infeasible.)  Removes and modifies of ids whose
   add was rejected come back as unknown-flow rejections, as they
   would from a client that does not wait for the answer. *)

module Request = Rtnet_admit.Request
module Ddcr_params = Rtnet_core.Ddcr_params
module Prng = Rtnet_util.Prng

let sources = 64
let live_target = 160
let tight_percent = 10

(* Loose deadlines stay below the scheduling horizon c·F = 8192·1024
   of [params]; tight ones are a few frame times. *)
let loose_deadline = (6_000_000, 8_000_000)
let tight_deadline = (20_000, 100_000)
let frame_bits = [| 1600; 4000; 8000 |]

(* Quaternary trees with horizon c·F past every deadline drawn above
   and round-robin static indices — the shape ddcr_admit gen uses. *)
let params ~sources =
  let rec pow4 n = if n >= 2 * sources then n else pow4 (4 * n) in
  let q = pow4 4 in
  let static_indices =
    Array.init sources (fun i ->
        Array.of_list
          (List.filter (fun j -> j mod sources = i) (List.init q Fun.id)))
  in
  {
    Ddcr_params.time_m = 4;
    time_leaves = 1024;
    class_width = 8192;
    alpha = 8192;
    theta = 0;
    static_m = 4;
    static_leaves = q;
    static_indices;
    burst_bits = 0;
  }

let flow rng ~sources ~tight id =
  let bits = frame_bits.(Prng.int rng (Array.length frame_bits)) in
  let window = bits * (2000 + Prng.int rng 18000) in
  let lo, hi = if tight then tight_deadline else loose_deadline in
  let deadline = lo + Prng.int rng (hi - lo) in
  {
    Request.fl_id = id;
    fl_source = Prng.int rng sources;
    fl_bits = bits;
    fl_deadline = deadline;
    fl_burst = 1 + Prng.int rng 2;
    fl_window = window;
    fl_offset = Prng.int rng window;
  }

let generate ~seed ~sources ~requests =
  let rng = Prng.create seed in
  (* Outstanding ids: every add not yet removed, accepted or not. *)
  let live = Array.make (requests + 1) "" and n_live = ref 0 in
  let fresh = ref 0 in
  let ramped = ref false in
  let draw_tight () = !ramped && Prng.int rng 100 < tight_percent in
  let add () =
    let id = Printf.sprintf "f%d" !fresh in
    incr fresh;
    live.(!n_live) <- id;
    incr n_live;
    if !n_live >= live_target then ramped := true;
    Request.Add (flow rng ~sources ~tight:(draw_tight ()) id)
  in
  let remove () =
    let i = Prng.int rng !n_live in
    let id = live.(i) in
    live.(i) <- live.(!n_live - 1);
    decr n_live;
    Request.Remove id
  in
  let modify () =
    let id = live.(Prng.int rng !n_live) in
    Request.Modify (flow rng ~sources ~tight:(draw_tight ()) id)
  in
  List.init requests (fun _ ->
      let u = Prng.int rng 100 in
      (* Below the target adds outpace removes; above it removes do. *)
      let p_add, p_remove =
        if !n_live < live_target then (75, 15) else (35, 45)
      in
      if !n_live = 0 || u < p_add then add ()
      else if u < p_add + p_remove then remove ()
      else modify ())

let trace ~seed ~requests =
  let phy =
    match Request.phy_of_name "gigabit-ethernet" with
    | Ok p -> p
    | Error e -> failwith e
  in
  {
    Request.tr_phy = phy;
    tr_sources = sources;
    tr_params = params ~sources;
    tr_requests = generate ~seed ~sources ~requests;
  }
