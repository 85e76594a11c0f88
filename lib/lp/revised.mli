(** Revised simplex with an explicit basis inverse.

    Same two-phase algorithm, pivot rules, tolerances, warm-crash and
    budget/deadline semantics as {!Simplex}'s dense tableau, but the
    constraint matrix is kept as immutable sparse columns and only the
    m x m basis inverse is updated per pivot — about half the dense
    memory on the placement LPs, whose column count is dominated by
    slacks and artificials. Callers should not use this directly:
    {!Simplex} auto-selects it by problem shape (see
    [Simplex.path]). The two paths agree on classification
    and objective up to float noise (property-tested); they are not
    bit-identical, which is why auto-selection keeps seed-size LPs on
    the historical dense path. *)

type result =
  | R_optimal of {
      x : float array;
      objective : float;
      duals : float array;
      basis : int array;
    }
  | R_infeasible
  | R_unbounded

type stats = {
  pivots : int; (* counted pivots: crash + simplex iterations *)
  row_nnz : float; (* mean nonzeros of the B⁻¹ pivot rows, 0 if none *)
  cells : int; (* cell updates, as counted by [qp_simplex_cell_updates_total] *)
}

val normalize : Lp.constr list -> ((int * float) list * Lp.cmp * float * float) list
(** Rows rewritten to a non-negative rhs: a row with [rhs < 0] is
    negated and its comparison flipped. The last component is the
    row's dual sign factor: [-1.] for a negated row, [1.] otherwise.
    Both storage paths build from it. *)

type problem
(** An LP's rows as sparse columns, built once. *)

val problem : Lp.t -> problem

type prepared
(** A problem whose phase 1 has run: the phase-1 basis inverse is kept
    as a snapshot that every {!solve_prepared} restores. Safe to share
    across domains. *)

val prepare : max_pivots:int -> problem -> prepared * stats
(** Phase 1 and the drive-out of zero-level artificials. Raises
    [Qp_util.Qp_error.Error (Internal _)] on pivot budget exhaustion or
    deadline cancellation, like the dense path. *)

val solve_prepared : max_pivots:int -> prepared -> objective:float array -> result * stats
(** Phase 2 with [objective] (one cost per structural variable) from
    the restored phase-1 state; [R_infeasible] when phase 1 found no
    feasible point. *)

val solve_crashed :
  max_pivots:int -> warm:int array -> problem -> objective:float array -> (result * stats) option
(** Crash [warm]'s columns into a fresh slack/artificial start; when
    that start is primal-feasible, skip phase 1 and run phase 2 from
    it. [None] when the crash start is infeasible. *)
