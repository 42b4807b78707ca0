(** The paper's figures and analytic claims as tables, defined once.

    Each function returns the table that [ddcr_figures] saves as CSV
    and that the bench harness prints (E1, E2, E4, E5) before its
    one-line verdict.  Reals are printed with six decimals. *)

val fig1 : unit -> Rtnet_util.Table.t
(** Fig. 1: [ξ_k^64] and its asymptote [ξ̃_k^64] for the quaternary
    tree, [k ∈ \[0, 64\]] (the asymptote is blank below [k = 2]).
    Columns [k], [xi_exact], [xi_asymptotic]. *)

val fig2 : unit -> Rtnet_util.Table.t
(** Fig. 2: [ξ_k^64] for binary and quaternary trees, [k ∈ \[2, 64\]].
    Columns [k], [xi_binary], [xi_quaternary]. *)

val tightness : unit -> Rtnet_util.Table.t
(** Eq. 12–14: the maximum even-[k] gap [ξ̃ − ξ] against the per-[m]
    (Eq. 13) and universal (Eq. 14) bounds, over nine tree shapes.
    Columns [m], [t], [max_gap], [eq13_bound], [eq14_bound]. *)

val p2 : unit -> Rtnet_util.Table.t
(** Eq. 16–19: the exhaustive worst case of [v] consecutive [t]-leaf
    searches carrying [u] messages against the Eq. 18 bound, for every
    [u ∈ \[2v, tv\]] of six [(m, t, v)] triples.
    Columns [m], [t], [v], [u], [exhaustive], [bound]. *)

val arbitrated : unit -> Rtnet_util.Table.t
(** §3.2's arbitrated medium: [ζ_k^t] ({!Xi_arb}) against [ξ_k^t] for
    64-leaf binary and quaternary trees.
    Columns [m], [t], [k], [zeta], [xi]. *)

val expected : unit -> Rtnet_util.Table.t
(** §3.1: expected against worst-case search slots for 64-leaf binary
    and quaternary trees.  Columns [m], [t], [k], [expected], [worst]. *)

val all : (string * (unit -> Rtnet_util.Table.t)) list
(** Every table above, in order, under its CSV file name (without the
    [.csv] extension). *)
