(** The SSQPP linear program, Eqs. (9)–(14).

    Nodes are renamed [v_0, v_1, ...] by increasing distance from the
    source ([d_0 = 0 <= d_1 <= ...]); [x_tu] fractionally places
    element [u] on the node of rank [t], and [x_tQ] marks the rank by
    which all of quorum [Q] has been placed:

    min  sum_Q p(Q) sum_t d_t x_tQ                      (9)
    s.t. sum_t x_tu = 1                     for all u   (10)
         sum_t x_tQ = 1                     for all Q   (11)
         sum_u load(u) x_tu <= cap(v_t)     for all t   (12)
         x_tu = 0 when load(u) > cap(v_t)               (13)
         sum_{s<=t} x_sQ <= sum_{s<=t} x_su
                     for all Q, u in Q, t               (14)

    Appendix A shows this relaxation has integrality gap
    Omega(sqrt n), which is why Theorem 3.7 rounds it with a capacity
    blow-up rather than exactly (experiment F1 reproduces the gap). *)

type fractional = {
  rank_of_node : int array; (* node id -> rank t *)
  node_of_rank : int array; (* rank t -> node id *)
  dist : float array; (* d_t by rank *)
  x_elem : float array array; (* rank t -> element u -> x_tu *)
  x_quorum : float array array; (* rank t -> quorum index -> x_tQ *)
  z_star : float; (* optimal LP value, lower bound on Delta_{f*}(v0) *)
}

val capacity_by_rank : Problem.ssqpp -> float array
(** [cap(v_t)] for each rank [t]. Rows (10)–(14) read the source only
    through this vector, so every source with the same vector has the
    same rows and one phase 1 ({!prepare}) serves them all; only
    objective (9) is specific to the source. Uniform capacities give
    every source the same vector. *)

val build : Problem.ssqpp -> Qp_lp.Lp.t * (int -> int -> int) * (int -> int -> int)
(** [build s] returns the LP plus the variable numbering
    [(var_elem t u, var_quorum t q)]; exposed for white-box tests. *)

type prepared
(** Phase 1 of rows (10)–(14) for one capacity-by-rank vector
    ({!Qp_lp.Simplex.prepare}). Safe to share across domains. *)

val prepare : ?max_pivots:int -> ?shared_by:int -> Problem.ssqpp -> prepared
(** Runs phase 1 of [s]'s rows; [shared_by] is the number of sources
    it will serve (a trace attribute). *)

val solve : ?max_pivots:int -> Problem.ssqpp -> fractional option
(** [None] when the LP is infeasible (capacities cannot hold the
    loads). [max_pivots] overrides the {!Qp_lp.Simplex.solve} pivot
    budget; exhausting it raises
    [Qp_util.Qp_error.Error (Internal _)] (caught at the solver-engine
    boundary). *)

val solve_warm :
  ?max_pivots:int ->
  ?warm:Qp_lp.Simplex.basis ->
  ?prepared:prepared ->
  Problem.ssqpp ->
  fractional option * Qp_lp.Simplex.basis option
(** Like {!solve}, returning the final simplex basis ([None] when the
    LP is infeasible). With [~prepared] (built for a source with the
    same {!capacity_by_rank}), only phase 2 runs, from the shared
    phase-1 state, and the result is bit-identical to a solve of its
    own; [warm] is then unused. Otherwise, with [~warm] — the basis
    returned by a previous solve of the same source on a slightly
    perturbed instance — the simplex crash-starts from it and skips
    phase 1 (falling back to its own phase 1 when the delta moved the
    optimum too far or changed the LP layout, e.g. by re-ranking nodes
    or toggling an oversize-pinning row).
    @raise Invalid_argument when [prepared] was built for another
    capacity-by-rank vector. *)

val quorum_frontier : fractional -> int -> float
(** [quorum_frontier sol q] = [D_Q = sum_t d_t x_tQ], the per-quorum
    fractional delay used by Claim 3.8. *)
