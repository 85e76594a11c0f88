module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Lp = Qp_lp.Lp
module Simplex = Qp_lp.Simplex
module Obs = Qp_obs

type fractional = {
  rank_of_node : int array;
  node_of_rank : int array;
  dist : float array;
  x_elem : float array array;
  x_quorum : float array array;
  z_star : float;
}

let ordering (s : Problem.ssqpp) =
  let node_of_rank = Metric.nodes_by_distance s.Problem.metric s.Problem.v0 in
  let n = Array.length node_of_rank in
  let rank_of_node = Array.make n 0 in
  Array.iteri (fun t v -> rank_of_node.(v) <- t) node_of_rank;
  let dist = Array.map (fun v -> Metric.dist s.Problem.metric s.Problem.v0 v) node_of_rank in
  (rank_of_node, node_of_rank, dist)

let sizes (s : Problem.ssqpp) =
  ( Metric.size s.Problem.metric,
    Quorum.universe s.Problem.system,
    Quorum.n_quorums s.Problem.system )

let numbering s =
  let n, nu, nq = sizes s in
  ((fun t u -> (t * nu) + u), fun t q -> (n * nu) + (t * nq) + q)

let capacity_by_rank (s : Problem.ssqpp) =
  let _, node_of_rank, _ = ordering s in
  Array.map (fun v -> s.Problem.capacities.(v)) node_of_rank

(* Rows (10)-(14) read the source only through the capacities in rank
   order. *)
let rows (s : Problem.ssqpp) =
  let n, nu, _ = sizes s in
  let caps = capacity_by_rank s in
  let loads = Strategy.loads s.Problem.system s.Problem.strategy in
  let var_elem, var_quorum = numbering s in
  let nq = Quorum.n_quorums s.Problem.system in
  let lp = Lp.create ((n * nu) + (n * nq)) in
  (* (10) each element placed once. *)
  for u = 0 to nu - 1 do
    Lp.add_constraint lp (List.init n (fun t -> (var_elem t u, 1.))) Lp.Eq 1.
  done;
  (* (11) each quorum completes once. *)
  for q = 0 to nq - 1 do
    Lp.add_constraint lp (List.init n (fun t -> (var_quorum t q, 1.))) Lp.Eq 1.
  done;
  (* (12) capacity per node and (13) oversize pinning. *)
  for t = 0 to n - 1 do
    let cap = caps.(t) in
    let terms = ref [] in
    for u = 0 to nu - 1 do
      if loads.(u) > cap +. 1e-12 then
        Lp.add_constraint lp [ (var_elem t u, 1.) ] Lp.Le 0.
      else if loads.(u) > 0. then terms := (var_elem t u, loads.(u)) :: !terms
    done;
    if !terms <> [] then Lp.add_constraint lp !terms Lp.Le cap
  done;
  (* (14) prefix-domination: a quorum cannot complete before each of
     its elements has been placed. The t = n-1 row is implied by (10)
     and (11) and is omitted. *)
  Array.iteri
    (fun q quorum ->
      Array.iter
        (fun u ->
          for t = 0 to n - 2 do
            let terms =
              List.init (t + 1) (fun st -> (var_quorum st q, 1.))
              @ List.init (t + 1) (fun st -> (var_elem st u, -1.))
            in
            Lp.add_constraint lp terms Lp.Le 0.
          done)
        quorum)
    (Quorum.quorums s.Problem.system);
  lp

(* Objective (9): the only part of the LP that depends on the source
   beyond the capacity order. *)
let objective (s : Problem.ssqpp) =
  let n, nu, nq = sizes s in
  let _, _, dist = ordering s in
  let _, var_quorum = numbering s in
  let c = Array.make ((n * nu) + (n * nq)) 0. in
  for t = 0 to n - 1 do
    for q = 0 to nq - 1 do
      c.(var_quorum t q) <- s.Problem.strategy.(q) *. dist.(t)
    done
  done;
  c

let build (s : Problem.ssqpp) =
  let lp = rows s in
  Array.iteri (Lp.set_objective lp) (objective s);
  let var_elem, var_quorum = numbering s in
  (lp, var_elem, var_quorum)

type prepared = { caps : float array; simplex : Simplex.prepared }

(* Runs in its own [lp_solve] span, so the row build of a shared
   phase 1 counts as LP build time like a per-source one. *)
let prepare ?max_pivots ?(shared_by = 1) (s : Problem.ssqpp) =
  let n, nu, nq = sizes s in
  Obs.Span.with_ "lp_solve"
    ~attrs:
      [ ("shared_by", Obs.Json.Int shared_by); ("n", Obs.Json.Int n);
        ("universe", Obs.Json.Int nu); ("quorums", Obs.Json.Int nq) ]
  @@ fun () ->
  { caps = capacity_by_rank s; simplex = Simplex.prepare ?max_pivots ~shared_by (rows s) }

let same_rows a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let solve_warm ?max_pivots ?warm ?prepared (s : Problem.ssqpp) =
  let rank_of_node, node_of_rank, dist = ordering s in
  let n, nu, nq = sizes s in
  Obs.Span.with_ "lp_solve"
    ~attrs:
      [ ("v0", Obs.Json.Int s.Problem.v0); ("n", Obs.Json.Int n);
        ("universe", Obs.Json.Int nu); ("quorums", Obs.Json.Int nq) ]
  @@ fun () ->
  let var_elem, var_quorum = numbering s in
  let outcome, basis =
    match prepared with
    | Some p ->
        if not (same_rows p.caps (capacity_by_rank s)) then
          invalid_arg "Lp_formulation.solve_warm: prepared for other capacities";
        (match Simplex.solve_prepared ?max_pivots p.simplex ~objective:(objective s) with
        | Simplex.Certified { x; objective; _ }, basis -> (Simplex.Optimal { x; objective }, basis)
        | Simplex.C_infeasible, _ -> (Simplex.Infeasible, None)
        | Simplex.C_unbounded, _ -> (Simplex.Unbounded, None))
    | None ->
        let lp, _, _ = build s in
        Simplex.solve_warm ?max_pivots ?warm lp
  in
  match outcome with
  | Simplex.Infeasible ->
      Obs.Span.add_attr "infeasible" (Obs.Json.Bool true);
      (None, None)
  | Simplex.Unbounded -> assert false (* objective is non-negative *)
  | Simplex.Optimal { x; objective } ->
      Obs.Span.add_attr "z_star" (Obs.Json.Float objective);
      let clip v = if v < 1e-11 then 0. else if v > 1. then 1. else v in
      let x_elem =
        Array.init n (fun t -> Array.init nu (fun u -> clip x.(var_elem t u)))
      in
      let x_quorum =
        Array.init n (fun t -> Array.init nq (fun q -> clip x.(var_quorum t q)))
      in
      ( Some { rank_of_node; node_of_rank; dist; x_elem; x_quorum; z_star = objective },
        basis )

let solve ?max_pivots (s : Problem.ssqpp) = fst (solve_warm ?max_pivots s)

let quorum_frontier sol q =
  let acc = ref 0. in
  Array.iteri (fun t row -> acc := !acc +. (sol.dist.(t) *. row.(q))) sol.x_quorum;
  !acc
