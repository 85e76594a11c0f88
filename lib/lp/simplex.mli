(** Two-phase primal simplex.

    Exact enough for the paper's placement LPs: Dantzig pricing for
    speed with a switch to Bland's rule after a stall to rule out
    cycling, and a phase-1 artificial-variable start. Two storage
    paths sit behind every entry point: the historical dense tableau,
    and a {!Revised} path (sparse columns + explicit basis inverse)
    that avoids materializing the tableau. Both update only the rows
    with a nonzero in the entering column, and in those only the pivot
    row's nonzero columns: a pivot costs rows touched x pivot-row
    nonzeros, not m x ncols (134 x 103 of 525 x 741 on the n=12
    grid:3 placement LPs). The path is auto-selected by problem
    shape — dense below [m * ncols = 8e6] cells, revised above — so
    seed-size LPs keep their historical pivot sequences bit-for-bit
    while large instances stop allocating m x ncols cells (DESIGN.md
    §15, "Scaling the solve core").

    {b Shared phase 1.} Phase 1 depends only on the rows, so it is a
    separate step: {!prepare} runs phase 1, drives out artificials and
    compacts redundant rows, and freezes the result; {!solve_prepared}
    restores that state bit for bit and runs phase 2 with the caller's
    objective. LPs that differ only in their objective share one
    {!prepare}, and each objective gets the same pivots, bits and
    duals as a solve of its own. {!solve}, {!solve_certified} and
    {!solve_warm} are built on the same pair.

    {b Telemetry.} Every phase runs in a [simplex] trace span with
    attributes [phase] (1 or 2), [rows], [vars], [path], [pivots] and
    [row_nnz] (the mean number of nonzeros in the pivot rows); a
    phase-1 span also carries [shared_by], the number of objectives
    its {!prepare} was built for. Counters in the current metrics
    registry:
    - [qp_simplex_solves_total]: one per solved objective (per
      candidate LP of the placement pipeline), whether or not its
      phase 1 was shared — {!prepare} alone counts no solve;
    - [qp_simplex_pivots_total]: pivots of every phase, a shared phase
      1 counted once, plus warm-crash pivots;
    - [qp_simplex_cell_updates_total]: a deterministic unit of
      inner-loop work — tableau and basis-inverse cells written by
      builds, snapshot restores and pivots (the pivot row's nonzeros
      in each row it touches), plus reduced-cost cells computed
      (FTRAN/BTRAN products and pricing on the revised path);
    - [qp_simplex_warm_attempts_total] / [qp_simplex_warm_used_total]:
      warm starts tried, and those whose crash basis skipped phase 1. *)

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

val solve : ?max_pivots:int -> Lp.t -> outcome
(** Solves [minimize c.x  s.t. rows, x >= 0]. [max_pivots] defaults to
    [50_000 + 50 * (rows + vars)]; exceeding it raises
    [Qp_util.Qp_error.Error (Internal _)] (caught at the solver-engine
    boundary; front ends expose it as a [--pivot-budget] knob). On
    [Optimal], the returned point satisfies every row to within [1e-6]
    relative tolerance — asserted internally. *)

type path = Dense | Revised

val set_forced_path : path option -> unit
(** Override the shape-based path choice (process-wide; test hook).
    [None] restores auto-selection. *)

val last_path : unit -> path
(** The path chosen by the most recent solve (any domain) —
    introspection for tests and bench asserts. *)

type basis
(** Opaque snapshot of the final simplex basis of an optimal solve:
    the handle for warm-starting a structurally identical LP whose
    coefficients moved a little (an instance delta). *)

type certified = {
  x : float array;
  objective : float;
  duals : float array; (* one multiplier per constraint, insertion order *)
}

type certified_outcome = Certified of certified | C_infeasible | C_unbounded

type prepared
(** An LP's rows after phase 1: the phase-1 tableau (or basis
    inverse) as a compressed off-heap snapshot, plus a stash of
    working buffers that phase 2 restores it into. Safe to share
    across domains; concurrent {!solve_prepared} calls each take their
    own working buffer. *)

val prepare : ?max_pivots:int -> ?shared_by:int -> Lp.t -> prepared
(** Runs phase 1 on the rows of the LP (its objective is ignored)
    inside a [simplex] span with [phase=1] and [shared_by] (default
    1). An infeasible LP yields a prepared state that every
    {!solve_prepared} reports as [C_infeasible]. [max_pivots] bounds
    phase 1 as in {!solve}. *)

val solve_prepared :
  ?max_pivots:int -> prepared -> objective:float array -> certified_outcome * basis option
(** Phase 2 with [objective] (one coefficient per variable, same
    length as the prepared LP's) from the restored phase-1 state:
    the same outcome, bits, duals and basis as {!solve_certified} on
    the LP with that objective, and the same phase-2 pivots. Counts
    one solve. [max_pivots] bounds phase 2 as in {!solve}.
    @raise Invalid_argument on an objective of the wrong length. *)

val solve_warm :
  ?max_pivots:int -> ?warm:basis -> Lp.t -> outcome * basis option
(** Like {!solve}, and additionally returns the final basis on
    [Optimal] for reuse. With [~warm] (a basis from a previous solve of
    an LP with the same variable/constraint layout), the solver crashes
    those columns into a fresh starting tableau first; if the crash
    start is primal-feasible, phase 1 is skipped entirely. If it is
    infeasible — the delta moved the optimum across a facet, or the LP
    shapes do not match — the solve falls back to {!prepare} and phase
    2 from the prepared state, so the outcome (objective, feasibility
    classification) is always identical to {!solve} up to the usual
    pivot-order float noise. A crash costs about as many pivots as the
    phase 1 it skips, so it pays only when that phase 1 would not be
    shared. Warm attempts and successes are counted in the
    [qp_simplex_warm_attempts_total] / [qp_simplex_warm_used_total]
    metrics; crash pivots count into [qp_simplex_pivots_total]. *)

val set_deadline : float option -> unit
(** Install (or clear) a domain-local wall-clock deadline, in
    {!Qp_obs.Core.now} seconds. While a deadline is set, every solve
    on this domain checks it on entry and once per pivot and raises
    [Qp_util.Qp_error.Error (Internal _)] as soon as the clock passes
    it — cooperative cancellation for serving front ends
    ([qp_serve] request deadlines). The deadline is domain-local so
    concurrent pooled solves never cancel each other; a
    {!Qp_par.Pool} context hook propagates the submitting domain's
    deadline into worker domains, so candidate LPs parallelized below
    a guarded solve still honor it. Callers must clear it
    ([set_deadline None]) when the guarded region ends; with no
    deadline installed the per-pivot cost is one domain-local load. *)

val get_deadline : unit -> float option
(** The deadline currently installed on this domain, if any. *)

val solve_certified : ?max_pivots:int -> Lp.t -> certified_outcome
(** Like {!solve} but also extracts the optimal dual multipliers from
    the final tableau, giving a machine-checkable optimality
    certificate (see {!check_certificate}). Convention for
    [min c.x, x >= 0]: a [<=] row has [y <= 0], a [>=] row has
    [y >= 0], an [=] row is free; dual feasibility is
    [c - A^T y >= 0] and strong duality [y.b = c.x]. *)

val check_certificate : ?tol:float -> Lp.t -> certified -> bool
(** Verifies primal feasibility, dual feasibility (including the sign
    conditions), and strong duality, all from first principles —
    independent of how the solution was produced. *)
