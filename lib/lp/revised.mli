(** Revised simplex with an explicit basis inverse.

    Same two-phase algorithm, pivot rules, tolerances, warm-crash and
    budget/deadline semantics as {!Simplex}'s dense tableau, but the
    constraint matrix is kept as immutable sparse columns and only the
    m x m basis inverse is updated per pivot — about half the dense
    memory on the placement LPs, whose column count is dominated by
    slacks and artificials. Callers should not use this directly:
    {!Simplex.solve} auto-selects it by problem shape (see
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

val normalize : Lp.constr list -> ((int * float) list * Lp.cmp * float * float) list
(** Rows rewritten to a non-negative rhs: a row with [rhs < 0] is
    negated and its comparison flipped. The last component is the
    row's dual sign factor: [-1.] for a negated row, [1.] otherwise.
    Both storage paths build from it. *)

val solve :
  ?warm:int array -> max_pivots:int -> Lp.t -> result * int * bool * float
(** [(result, pivots, warm_used, row_nnz)]. [pivots] counts crash +
    phase-1 + phase-2 pivots; [warm_used] is true when the warm crash
    reached a primal-feasible start and phase 1 was skipped; [row_nnz]
    is the mean number of nonzeros in the B⁻¹ pivot rows (0 when no
    pivot ran). Raises the same [Qp_util.Qp_error.Error (Internal _)]
    as the dense path on pivot budget exhaustion or deadline
    cancellation. *)
