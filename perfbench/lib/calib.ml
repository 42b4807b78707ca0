(* Host-speed calibration.

   The benchmark's host is shared: on the 2-core machine it was built
   on, the same replicate's wall time drifts by up to 2× over tens of
   seconds as neighbours come and go, with under 1% CPU steal, so the
   core itself runs slower.  Ten raw 30 s runs per workload spread by
   up to 31% (interquartile range ÷ median).  So every replicate is
   bracketed by runs of [kernel] and end-to-end times are reported in
   reference seconds:

     reference time = measured time × reference_s / kernel time

   where the kernel time is the mean of the two runs bracketing the
   replicate.  The kernel touches no rtnet code and allocates nothing,
   so no change to the program under test, its heap or its GC settings
   can move it.  Per-layer metrics stay in raw host seconds, and
   [host.slowdown] reports the factor. *)

(* Kernel time on the development host (Xeon, 2 vCPUs at 2.0 GHz) in
   its fast periods; a fixed constant, so it only sets the scale. *)
let reference_s = 0.018

(* Structures the kernel reads, built once at start-up: a hash table,
   a list and some strings, the shapes the simulators' and the
   admission engine's hot paths walk. *)
let table =
  let h = Hashtbl.create 1024 in
  for j = 0 to 999 do
    Hashtbl.replace h (j * 7919) j
  done;
  h

let pairs = List.init 2000 (fun j -> (j, j * 3))

let strings =
  Array.init 64 (fun j -> Printf.sprintf "tts:%d:%s" j (String.make (j mod 17) 'x'))

(* Hash lookups, a list walk and string hashing, none of which
   allocates. *)
let kernel () =
  let t0 = Clock.now_ns () in
  let acc = ref 0 in
  for round = 1 to 900 do
    for j = 0 to 499 do
      acc := !acc + Hashtbl.find table ((j + round) mod 1000 * 7919)
    done;
    acc := List.fold_left (fun a (x, y) -> a + x + y) !acc pairs;
    for j = 0 to Array.length strings - 1 do
      acc := !acc + Hashtbl.hash strings.(j)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.seconds_since t0

(* Host slowness relative to the reference: > 1 when the host is
   slower than when the constant was taken. *)
let factor ~before ~after = (before +. after) /. 2. /. reference_s
