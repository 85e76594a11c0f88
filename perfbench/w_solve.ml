(* The solve workloads.

   lp-general: [alg=lp] (Theorem 1.2: LP (9)-(14) for every candidate
   source, alpha-filtering, GAP rounding, relay) on waxman general
   metrics with grid:3, one worker domain.

   tree-scale: [alg=auto] on random trees with grid:2 at nproc worker
   domains; [auto] dispatches to the exact tree specialist, so no LP
   runs.

   One operation is one instance, timed from its spec to the solver's
   outcome, instance build included: [Spec.build], then the [Solver]
   registry, the calls a user makes. The traced run makes the same
   calls with a trace sink installed (see [Tracer]). End-to-end times
   are speed-scaled (see [Speed]). *)

open Common
module Rng = Qp_util.Rng
module Spec = Qp_instance.Spec
module Metric = Qp_graph.Metric
module Problem = Qp_place.Problem
module Solver = Qp_place.Solver
module Outcome = Qp_place.Outcome
module Tree_place = Qp_place.Tree_place
module Protocol = Qp_serve.Protocol

type kind = Lp_general | Tree_scale

let sizes = function
  | Lp_general -> [| 12; 12; 12 |]
  | Tree_scale -> [| 1920; 2880; 2880; 3840 |]

let alg = function Lp_general -> "lp" | Tree_scale -> "auto"

(* Round [r] holds one instance of every size, each with its own seed
   drawn from the run seed. *)
let round_specs kind rng =
  Array.map
    (fun n ->
      let seed = 1 + Rng.int rng 1_000_000_000 in
      match kind with
      | Lp_general ->
          { Spec.topology = "waxman"; nodes = n; system = "grid:3";
            cap_slack = 1.0; seed; jobs = 1 }
      | Tree_scale ->
          { Spec.topology = "tree"; nodes = n; system = "grid:2";
            cap_slack = 1.0; seed; jobs = 0 })
    (sizes kind)

let params kind spec =
  Protocol.solver_params spec
    { Protocol.default_options with Protocol.algorithm = alg kind }

let ok_or_fail = function
  | Ok v -> v
  | Error e -> failwith (Qp_util.Qp_error.to_string e)

(* A benchmark-side span around a call into the program; a plain call
   unless [Tracer.record] has a sink installed. *)
let span name f = Qp_obs.Span.with_ name f

(* One operation, in both runs: the user's path from spec to outcome,
   Spec.build and then the registry's solver. In the traced run the
   program's own spans (qpp_solve, candidate, lp_solve, simplex,
   filtering, rounding, relay) nest under [solver]. *)
let solve kind spec =
  let p = span "instance.build" (fun () -> ok_or_fail (Spec.build spec)) in
  let o = span "solver" (fun () -> (Solver.find_exn (alg kind)).Solver.solve (params kind spec) p) in
  (p, o)

(* Traced run only, after each operation and outside its timing: the
   layers that Spec.build and the tree specialist run without a span,
   timed by calling their public functions once more on the same
   input. The APSP probe bypasses the cache; the problem probe finds
   the operation's metric in it, so it times the problem build alone.
   The tree specialist verifies the metric itself, so the search time
   is the solver's self time minus the verification probe's. *)
let probes kind spec (p : Problem.qpp) =
  let graph =
    span "graph.topology" (fun () ->
        ok_or_fail (Spec.build_topology spec.Spec.topology spec.Spec.nodes (Rng.create spec.Spec.seed)))
  in
  ignore (span "graph.apsp" (fun () -> Metric.of_graph ~cache:false graph));
  let system = ok_or_fail (Spec.build_system spec.Spec.system) in
  ignore
    (span "instance.problem" (fun () ->
         Spec.uniform_problem ~graph ~system ~slack:spec.Spec.cap_slack));
  if kind = Tree_scale then
    ignore (span "place.tree_verify" (fun () -> Tree_place.is_tree_metric p.Problem.metric))

(* APSP cache lookups and hits, counted around each operation. *)
type cache_tally = { mutable lookups : int; mutable hits : int }

let cache_tally () = { lookups = 0; hits = 0 }

let count_cache ct f =
  let h0, m0, _ = Metric.apsp_cache_stats () in
  let v = f () in
  let h1, m1, _ = Metric.apsp_cache_stats () in
  ct.lookups <- ct.lookups + (h1 - h0) + (m1 - m0);
  ct.hits <- ct.hits + (h1 - h0);
  v

let cache_layers ct =
  [ m "graph.apsp_cache_hit_ratio" "ratio" (ratio (float_of_int ct.hits) (float_of_int ct.lookups));
    m "graph.apsp_cache_mb" "MB" (float_of_int (Metric.apsp_cache_bytes ()) /. 1048576.) ]

(* The qp_lp layer and the LP route of qp_place, per operation, from
   the program's spans and counters: simplex self time, solves and
   pivots from the scoped counters, LP shape and path from the simplex
   spans' attributes, the placement steps' self times. The candidate
   span's self time is the SSQPP reduction plus the evaluation of the
   rounded placement's objective. *)
let lp_layers reg ~n_ops =
  let self = Tracer.self_times () in
  let per_op name = self name /. n_ops in
  let pivots = counter reg "qp_simplex_pivots_total" in
  let lps = counter reg "qp_simplex_solves_total" in
  let simplex = Tracer.named "simplex" in
  let n_spans = float_of_int (List.length simplex) in
  let mean_attr k =
    ratio (List.fold_left (fun a s -> a +. Option.value (Tracer.attr_float s k) ~default:0.) 0. simplex) n_spans
  in
  let revised = List.filter (fun s -> Tracer.attr_string s "path" = Some "revised") simplex in
  [ m "lp.simplex_s" "s" (per_op "simplex");
    m "lp.solves" "count" (lps /. n_ops);
    m "lp.pivots" "count" (pivots /. n_ops);
    m "lp.pivots_per_lp" "count" (ratio pivots lps);
    m "lp.us_per_pivot" "us" (ratio (1e6 *. self "simplex") pivots);
    m "lp.rows_per_lp" "count" (mean_attr "rows");
    m "lp.cols_per_lp" "count" (mean_attr "vars");
    m "lp.revised_share" "ratio" (ratio (float_of_int (List.length revised)) n_spans);
    m "place.lp_build_s" "s" (per_op "lp_solve");
    m "place.candidates" "count" (float_of_int (List.length (Tracer.named "candidate")) /. n_ops);
    m "place.filter_s" "s" (per_op "filtering");
    m "place.round_s" "s" (per_op "rounding");
    m "place.delay_eval_s" "s" (per_op "candidate");
    m "place.relay_s" "s" (per_op "relay") ]

let run kind ~seed ~seconds ~rounds ~traced ~on_first_op =
  (match kind with
  | Lp_general ->
      Qp_par.Pool.set_default_jobs 1;
      Affinity.pin_self ()
  | Tree_scale -> Qp_par.Pool.set_default_jobs (Domain.recommended_domain_count ()));
  let rng = Rng.create seed in
  Speed.reset ();
  let t = tally () in
  let ct = cache_tally () in
  let lat = ref [] and delays = ref [] and gap = ref [] and search_nodes = ref 0. in
  let started = ref false in
  let reg = Metrics.create ~enabled:true () in
  let one spec =
    if not !started then begin
      on_first_op ();
      started := true
    end;
    let op = Tracer.next_op () in
    let (p, o), dt =
      Metrics.with_current reg (fun () ->
          time (fun () -> count_cache ct (fun () -> Tracer.record ~op "solve" (fun () -> solve kind spec))))
    in
    lat := dt :: !lat;
    if traced then Tracer.record ~op "probe" (fun () -> probes kind spec p);
    Speed.sample_after dt;
    let errs =
      match o with
      | Error e -> [ Qp_util.Qp_error.to_string e ]
      | Ok o ->
          delays := o.Outcome.avg_max_delay :: !delays;
          Option.iter (fun k -> search_nodes := !search_nodes +. k) (Outcome.detail o "search_nodes");
          (match o.Outcome.lower_bound with
          | Some lb when lb > 0. -> gap := ((o.Outcome.avg_max_delay /. lb) -. 1.) :: !gap
          | _ -> ());
          Check.outcome ~lp:(kind = Lp_general) p o
    in
    record t errs
  in
  let round_s = match kind with Lp_general -> 2.5 | Tree_scale -> 9.5 in
  for _ = 1 to rounds_for ~seconds ~round_s rounds do
    Array.iter one (round_specs kind rng)
  done;
  let lat = Array.of_list (List.rev !lat) in
  let n_ops = float_of_int (Array.length lat) in
  let busy = sum lat in
  let self = Tracer.self_times () in
  let per_op name = self name /. n_ops in
  (* op_p50_ms and ops_per_s are speed-scaled (see Speed). *)
  let speed = Speed.factor () in
  {
    tally = t;
    e2e =
      [ m "op_p50_ms" "ms" (1000. *. median lat *. speed);
        m "ops_per_s" "1/s" (n_ops /. busy /. speed);
        m "avg_max_delay" "dist" (mean (Array.of_list !delays)) ];
    layers =
      lp_layers reg ~n_ops
      @ cache_layers ct
      @ [ m "place.lb_gap" "ratio" (if !gap = [] then 0. else mean (Array.of_list !gap));
          m "place.tree_verify_s" "s" (per_op "place.tree_verify");
          m "place.tree_search_s" "s"
            (if kind = Tree_scale then Float.max 0. (per_op "solver" -. per_op "place.tree_verify")
             else 0.);
          m "place.tree_search_nodes" "count" (!search_nodes /. n_ops);
          m "graph.topology_s" "s" (per_op "graph.topology");
          m "graph.apsp_s" "s" (per_op "graph.apsp");
          m "instance.problem_s" "s" (per_op "instance.problem") ];
    extra =
      [ m "solve_p50_s" "s" (median lat);
        m "solves_per_s" "1/s" (n_ops /. busy);
        m "solves" "count" n_ops ]
      @ [ m "speed_factor" "ratio" speed ];
    peak_rss_mb = vmhwm_mb ();
    op_times = Array.map (fun x -> x *. speed) lat;
    counts =
      [ ("lp.pivots", counter reg "qp_simplex_pivots_total");
        ("lp.solves", counter reg "qp_simplex_solves_total");
        ("place.tree_search_nodes", !search_nodes);
        ("avg_max_delay", sum (Array.of_list !delays)) ];
  }
