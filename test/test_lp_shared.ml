(* Shared phase 1: one [Simplex.prepare] serving many objectives must
   give every objective exactly what a solve of its own gives, and the
   placement pipeline that groups candidate sources by their rows must
   keep the answers of the per-source pipeline. *)

module Rng = Qp_util.Rng
module Lp = Qp_lp.Lp
module Simplex = Qp_lp.Simplex
module Spec = Qp_instance.Spec
module Metrics = Qp_obs.Metrics
open Qp_place

(* Rows of a random LP that the point [witness] satisfies, so phase 1
   always succeeds; some rows are repeated, which leaves a redundant
   row for the drive-out to drop (dense) or park (revised). *)
let random_rows rng =
  let n = 2 + Rng.int rng 6 in
  let m = 2 + Rng.int rng 9 in
  let witness = Array.init n (fun _ -> Rng.float rng 5.) in
  let rows = ref [] in
  for _ = 1 to m do
    let terms = List.init n (fun v -> (v, Rng.float rng 4. -. 2.)) in
    let lhs = Lp.eval_terms terms witness in
    let row =
      match Rng.int rng 3 with
      | 0 -> (terms, Lp.Le, lhs +. Rng.float rng 2.)
      | 1 -> (terms, Lp.Ge, lhs -. Rng.float rng 2.)
      | _ -> (terms, Lp.Eq, lhs)
    in
    rows := row :: !rows;
    if Rng.int rng 4 = 0 then rows := row :: !rows
  done;
  (n, List.rev !rows)

let lp_of (n, rows) objective =
  let lp = Lp.create n in
  List.iter (fun (terms, cmp, rhs) -> Lp.add_constraint lp terms cmp rhs) rows;
  Option.iter (Array.iteri (Lp.set_objective lp)) objective;
  lp

let bits a = Array.map Int64.bits_of_float a

let same_outcome a b =
  match (a, b) with
  | Simplex.Certified a, Simplex.Certified b ->
      bits a.Simplex.x = bits b.Simplex.x
      && Int64.bits_of_float a.Simplex.objective = Int64.bits_of_float b.Simplex.objective
      && bits a.Simplex.duals = bits b.Simplex.duals
  | Simplex.C_infeasible, Simplex.C_infeasible | Simplex.C_unbounded, Simplex.C_unbounded -> true
  | _ -> false

let with_path path f =
  Simplex.set_forced_path path;
  Fun.protect ~finally:(fun () -> Simplex.set_forced_path None) f

(* k objectives (some with negative costs, so some runs are unbounded)
   against one prepare, each compared with an independent
   [solve_certified] of the same LP. *)
let prop_prepared_equals_independent path =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "solve_prepared = solve_certified bit for bit (%s)"
         (match path with Simplex.Dense -> "dense" | Simplex.Revised -> "revised"))
    ~count:80 QCheck.small_int
    (fun seed ->
      with_path (Some path) @@ fun () ->
      let rng = Rng.create (seed + 7000) in
      let shape = random_rows rng in
      let n = fst shape in
      let k = 1 + Rng.int rng 5 in
      let p = Simplex.prepare ~shared_by:k (lp_of shape None) in
      List.for_all
        (fun _ ->
          let objective = Array.init n (fun _ -> Rng.float rng 4. -. 1.) in
          let shared, _ = Simplex.solve_prepared p ~objective in
          let own = Simplex.solve_certified (lp_of shape (Some objective)) in
          same_outcome shared own)
        (List.init k Fun.id))

let test_infeasible_for_every_objective () =
  (* x0 + x1 <= 1 and x0 + x1 >= 3 cannot both hold. *)
  let lp = Lp.create 2 in
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Le 1.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Ge 3.;
  List.iter
    (fun path ->
      with_path (Some path) @@ fun () ->
      let p = Simplex.prepare ~shared_by:3 lp in
      List.iter
        (fun objective ->
          match Simplex.solve_prepared p ~objective with
          | Simplex.C_infeasible, None -> ()
          | _ -> Alcotest.fail "expected infeasible with no basis")
        [ [| 1.; 1. |]; [| -1.; 0. |]; [| 0.; 0. |] ])
    [ Simplex.Dense; Simplex.Revised ]

let test_objective_length_checked () =
  let lp = Lp.create 2 in
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le 1.;
  let p = Simplex.prepare lp in
  Alcotest.check_raises "short objective"
    (Invalid_argument "Simplex.solve_prepared: objective length <> number of variables")
    (fun () -> ignore (Simplex.solve_prepared p ~objective:[| 1. |]))

(* A QPP whose capacities are not uniform: node 0 gets half again the
   base capacity, so a source's capacity-by-rank vector depends on
   node 0's rank in its distance order (7 groups on both instances).
   The pinned values were recorded by the per-source pipeline before
   phase 1 was shared, with the total pivots it took. *)
type pinned = {
  nodes : int;
  seed : int;
  v0 : int;
  placement : int array;
  objective : int64;
  lower_bound : int64;
  z_star : int64;
  relayed : int64;
  per_source_pivots : int;
}

let fixture =
  [
    { nodes = 10; seed = 4; v0 = 5;
      placement = [| 5; 7; 1; 7; 1; 5; 7; 1; 5 |];
      objective = 0x3fe168a0dcfdbadfL; lower_bound = 0x3fc0607f58298c63L;
      z_star = 0x3fd02e2b31237630L; relayed = 0x3fe3497075c9febfL;
      per_source_pivots = 2586 };
    { nodes = 12; seed = 7; v0 = 2;
      placement = [| 2; 3; 11; 3; 11; 2; 3; 11; 2 |];
      objective = 0x3fe2feb255ef0ecaL; lower_bound = 0x3fc268bed153b303L;
      z_star = 0x3fce180d5dff397eL; relayed = 0x3fe78474ccf96bebL;
      per_source_pivots = 3396 };
  ]

let skewed_problem ~nodes ~seed =
  let p =
    match
      Spec.build
        { Spec.default with Spec.topology = "waxman"; nodes; system = "grid:3"; cap_slack = 1.3; seed }
    with
    | Ok p -> p
    | Error e -> Alcotest.fail (Qp_util.Qp_error.to_string e)
  in
  let capacities =
    Array.mapi (fun v c -> if v = 0 then c *. 1.5 else c) p.Problem.capacities
  in
  Problem.make_qpp ~metric:p.Problem.metric ~capacities ~system:p.Problem.system
    ~strategy:p.Problem.strategy ()

let test_grouped_qpp_matches_per_source (c : pinned) () =
  let p = skewed_problem ~nodes:c.nodes ~seed:c.seed in
  (* The instance must exercise both kinds of group. *)
  let keys =
    List.init c.nodes (fun v0 ->
        Array.to_list (Lp_formulation.capacity_by_rank (Problem.ssqpp_of_qpp p v0)))
  in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check bool) "more than one group" true (List.length distinct > 1);
  Alcotest.(check bool) "a group is shared" true (List.length distinct < c.nodes);
  let solve jobs =
    Qp_par.Pool.set_default_jobs jobs;
    Fun.protect ~finally:(fun () -> Qp_par.Pool.set_default_jobs 1) @@ fun () ->
    let reg = Metrics.create ~enabled:true () in
    let r = Metrics.with_current reg (fun () -> Qpp_solver.solve ~alpha:2. p) in
    (r, Metrics.scalar_series reg)
  in
  (* Three domains share each group's prepared state. *)
  let r, series = solve 1 and r3, series3 = solve 3 in
  Alcotest.(check (list (pair string (float 0.)))) "metrics at jobs 1 and 3" series series3;
  match (r, r3) with
  | None, _ | _, None -> Alcotest.fail "infeasible"
  | Some r, Some r3 ->
      Alcotest.(check (array int)) "placement at jobs 3" r.Qpp_solver.placement
        r3.Qpp_solver.placement;
      let hex = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%016Lx" v) Int64.equal in
      let b = Int64.bits_of_float in
      Alcotest.(check int) "v0" c.v0 r.Qpp_solver.v0;
      Alcotest.(check (array int)) "placement" c.placement r.Qpp_solver.placement;
      Alcotest.check hex "objective bits" c.objective (b r.Qpp_solver.objective);
      Alcotest.check hex "lower_bound bits" c.lower_bound
        (b (Option.get r.Qpp_solver.lower_bound));
      Alcotest.check hex "z_star bits" c.z_star (b r.Qpp_solver.ssqpp.Rounding.z_star);
      Alcotest.check hex "relayed bits" c.relayed (b r.Qpp_solver.relayed_objective);
      let pivots = int_of_float (List.assoc "qp_simplex_pivots_total" series) in
      Alcotest.(check bool) "shared groups save pivots" true (pivots < c.per_source_pivots)

let suites =
  [
    ( "lp.shared_phase1",
      List.map QCheck_alcotest.to_alcotest
        [ prop_prepared_equals_independent Simplex.Dense;
          prop_prepared_equals_independent Simplex.Revised ]
      @ [
          Alcotest.test_case "infeasible for every objective" `Quick
            test_infeasible_for_every_objective;
          Alcotest.test_case "objective length checked" `Quick test_objective_length_checked;
        ]
      @ List.map
          (fun c ->
            Alcotest.test_case
              (Printf.sprintf "non-uniform capacities n=%d seed=%d" c.nodes c.seed)
              `Quick (test_grouped_qpp_matches_per_source c))
          fixture );
  ]
