(* Host time for the benchmark's own timers: CLOCK_MONOTONIC in
   nanoseconds, read without allocating. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Growable int buffer for timestamps and latencies recorded on a hot
   path: amortized O(1) pushes, no boxing. *)
module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push b v =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1

  let length b = b.len
  let get b i = b.data.(i)
  let to_array b = Array.sub b.data 0 b.len
end
