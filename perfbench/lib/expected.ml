(* Output digests the default seed must reproduce, one per workload,
   taken from replicate 0: the simulators' completion lists and the
   admission decision log (the journal).  After a deliberate behaviour
   change, a default-seed run fails with "digest X, expected Y" (or
   "digest X, none recorded" for a new workload); X is the new value. *)

let default_seed = 1

let digests =
  [
    ("sim_dense", "170a7bc7ed77774164a0ec6553501faa");
    ("sim_wide", "f629af1b32a7aeb74572aeb0a4e1b5ae");
    ("sim_faulted", "a7d818c11f365566cdc556c958a26da2");
    ("admit_churn", "627cc566a326ab79c2cbb534f6b5ccb5");
  ]
