(** Aligned text tables and CSV rendering for experiment reports.

    Benches and example programs print the same rows the paper reports;
    this module keeps their formatting uniform. *)

type align = Left | Right

type t
(** A table under construction: a header plus accumulated rows. *)

val create : ?aligns:align list -> string list -> t
(** [create header] is an empty table with the given column names.
    [aligns] defaults to [Right] for every column. *)

val add_row : t -> string list -> unit
(** [add_row tbl cells] appends a row.
    @raise Invalid_argument if the arity differs from the header. *)

val add_int_row : t -> int list -> unit
(** [add_int_row tbl cells] appends a row of integers. *)

val column : t -> string -> string list
(** [column tbl name] is the cells of the column headed [name], top to
    bottom.
    @raise Not_found if no column has that header. *)

val render : t -> string
(** [render tbl] is the aligned, boxed text rendering. *)

val to_csv : t -> string
(** [to_csv tbl] is the RFC-4180-style CSV rendering (header first). *)

val print : t -> unit
(** [print tbl] writes [render tbl] to standard output. *)

val save_csv : dir:string -> name:string -> t -> string
(** [save_csv ~dir ~name tbl] writes the CSV to [dir/name.csv]
    (creating [dir] if needed) and returns the path written. *)
