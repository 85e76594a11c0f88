(** Storage shared by both simplex paths.

    Tableau rows (dense path) and basis-inverse rows (revised path)
    live off the OCaml heap as [float64] Bigarrays, so the live
    working set of a solve is not multiplied by the GC's space
    overhead. A {!snapshot} freezes rows after phase 1 in compressed
    sparse-row form; {!restore} writes them back bit for bit into a
    working buffer taken from a {!stash}, so every phase 2 of a shared
    phase 1 starts from the identical state. *)

type row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val make : int -> row
(** [make ncols] is a zero-filled row. *)

type snapshot
(** Rows frozen in compressed sparse-row form, off the OCaml heap. *)

val snapshot : row array -> n_rows:int -> ncols:int -> snapshot
(** The first [n_rows] rows, keeping every cell that is not [+0.]
    ([-0.] included). *)

val restore : snapshot -> row array -> unit
(** Overwrites rows [0 .. n_rows-1] of the target (each at least
    [ncols] wide) with the snapshot: exact bits, every cell written. *)

type 'a stash
(** A domain-safe free list of reusable working buffers. *)

val stash : unit -> 'a stash
val take : 'a stash -> 'a option
val give : 'a stash -> 'a -> unit
