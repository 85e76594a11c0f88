(* geo-scenario: [Qp_scenario.Runner.run] over region-table specs
   (aws-3, gcp-6, aws-9), read/write quorum mixes and zipf or
   per-region client skews, at one worker domain. The offered-load
   sweeps are sized so the queueing access simulation (qp_sim) does
   most of the work; the two read/write specs of a round take the LP
   route (rw-grid through [auto], which has no specialist for it, and
   rw-majority through [lp]).

   One operation is one scenario: a call to [Runner.run], in both
   runs. In the traced run the program's own spans (access_sim_run per
   offered load, and qpp_solve and its children on the LP route) nest
   under it. Its end-to-end times are speed-scaled (see [Speed]). *)

open Common
module Rng = Qp_util.Rng
module Spec = Qp_instance.Spec
module Region = Qp_instance.Region
module Metric = Qp_graph.Metric
module Problem = Qp_place.Problem
module Outcome = Qp_place.Outcome
module Rw_qs = Qp_quorum.Rw_qs
module Strategy = Qp_quorum.Strategy
module Scenario = Qp_scenario.Scenario
module Runner = Qp_scenario.Runner
module Clients = Qp_scenario.Clients
module Access_sim = Qp_sim.Access_sim

let loads = [| 0.25; 0.5; 1.0; 1.5; 2.0 |]

(* One round: four specs whose skews, mixes and seeds come from the run
   seed. *)
let round_specs rng =
  let u lo hi = lo +. Rng.float rng (hi -. lo) in
  let seed () = 1 + Rng.int rng 1_000_000_000 in
  let base name topology nodes system alg accesses service skew =
    { Scenario.default with
      Scenario.name; topology; nodes; system; alg;
      read_fraction = u 0.55 0.95;
      skew;
      offered_loads = loads;
      accesses_per_client = accesses;
      service;
      seed = seed () }
  in
  [| base "aws3-rw-grid" "region:aws-3" 9 "rw-grid:3" "auto" 4500
       (Access_sim.Exponential 1.0) (Clients.Zipf (u 0.8 1.4));
     base "gcp6-grid" "region:gcp-6" 12 "grid:3" "auto" 3000
       (Access_sim.Fixed 1.0)
       (Clients.Region_weights (Array.init 6 (fun _ -> u 0.5 4.0)));
     base "aws9-majority" "region:aws-9" 18 "majority:9:5" "auto" 1500
       (Access_sim.Exponential 2.0) (Clients.Zipf (u 0.8 1.4));
     base "aws3-rw-majority-lp" "region:aws-3" 9 "rw-majority:5:2:4" "lp" 3000
       (Access_sim.Exponential 1.0) (Clients.Zipf (u 0.8 1.4)) |]

let ok_or_fail = function
  | Ok v -> v
  | Error e -> failwith (Qp_util.Qp_error.to_string e)

let resolve_system name =
  match Rw_qs.of_string_opt name with
  | Some r -> ok_or_fail r
  | None -> Rw_qs.of_system (ok_or_fail (Spec.build_system name))

(* The check's own construction of the rho-mix problem a scenario
   solves (topology, client rates, and capacities of slack times the
   largest element load under the rho mix and the symmetric one), so
   the outcome checks do not rest on the runner's construction. *)
let check_problem (spec : Scenario.t) =
  let graph =
    ok_or_fail
      (Spec.build_topology spec.Scenario.topology spec.Scenario.nodes (Rng.create spec.Scenario.seed))
  in
  let rw = resolve_system spec.Scenario.system in
  let rates =
    ok_or_fail
      (Clients.rates ?table:(Scenario.region_table spec) spec.Scenario.skew
         ~nodes:spec.Scenario.nodes ~seed:spec.Scenario.seed)
  in
  let system = Rw_qs.combined rw in
  let read = Rw_qs.uniform_read rw and write = Rw_qs.uniform_write rw in
  let mix rho = Rw_qs.mixed rw ~read ~write ~read_fraction:rho in
  let max_load =
    List.fold_left
      (fun acc s -> Array.fold_left Float.max acc (Strategy.loads system s))
      0. [ mix spec.Scenario.read_fraction; mix 0.5 ]
  in
  Problem.make_qpp ~metric:(Metric.of_graph graph)
    ~capacities:(Array.make spec.Scenario.nodes (spec.Scenario.cap_slack *. max_load))
    ~system ~strategy:(mix spec.Scenario.read_fraction) ~client_rates:rates ()

(* A benchmark-side span around a call into the program; a plain call
   unless [Tracer.record] has a sink installed. *)
let span name f = Qp_obs.Span.with_ name f

(* Traced run only, after each scenario and outside its timing: the
   graph layers, which Runner.run runs without a span, timed by calling
   their public functions on the same spec (the APSP probe bypasses the
   cache). *)
let probes (spec : Scenario.t) =
  let graph =
    span "graph.topology" (fun () ->
        ok_or_fail
          (Spec.build_topology spec.Scenario.topology spec.Scenario.nodes
             (Rng.create spec.Scenario.seed)))
  in
  ignore (span "graph.apsp" (fun () -> Metric.of_graph ~cache:false graph))

(* Structural checks on a qp-scenario/1 record, plus the outcome checks
   against the instance rebuilt independently of the runner. *)
let check_record (spec : Scenario.t) (r : Runner.t) =
  let errs = ref [] in
  let err s = errs := s :: !errs in
  let offered = spec.Scenario.offered_loads in
  if Array.length r.Runner.curve <> Array.length offered then err "curve: one cell per offered load"
  else
    Array.iteri
      (fun k c ->
        if c.Runner.offered <> offered.(k) || c.Runner.accesses <= 0 then
          err "curve: cell does not match its offered load")
      r.Runner.curve;
  let regions =
    match Scenario.region_table spec with
    | Some t -> Array.to_list (Region.regions t)
    | None -> [ "all" ]
  in
  if List.map (fun c -> c.Runner.region) r.Runner.region_cdfs <> regions then
    err "region cdfs: not every region keyed";
  List.iter
    (fun c ->
      let rec mono = function
        | (q1, v1) :: ((q2, v2) :: _ as rest) -> q1 < q2 && v1 <= v2 && mono rest
        | _ -> true
      in
      if not (mono c.Runner.cdf) then err ("region cdf not monotone: " ^ c.Runner.region))
    r.Runner.region_cdfs;
  List.rev_append !errs
    (Check.outcome ~lp:(spec.Scenario.alg = "lp") (check_problem spec) r.Runner.outcome)

let run ~seed ~seconds ~rounds ~traced ~on_first_op =
  Qp_par.Pool.set_default_jobs 1;
  Affinity.pin_self ();
  let rng = Rng.create seed in
  Speed.reset ();
  let t = tally () in
  let reg = Metrics.create ~enabled:true () in
  let ct = W_solve.cache_tally () in
  let lat = ref [] and delays = ref [] in
  let started = ref false in
  let one spec =
    if not !started then begin
      on_first_op ();
      started := true
    end;
    let op = Tracer.next_op () in
    let res, dt =
      Metrics.with_current reg (fun () ->
          time (fun () ->
              W_solve.count_cache ct (fun () ->
                  Tracer.record ~op "scenario" (fun () -> Runner.run spec))))
    in
    lat := dt :: !lat;
    if traced then Tracer.record ~op "probe" (fun () -> probes spec);
    Speed.sample_after dt;
    let errs =
      match res with
      | Error e -> [ Qp_util.Qp_error.to_string e ]
      | Ok r ->
          delays := r.Runner.outcome.Outcome.avg_max_delay :: !delays;
          check_record spec r
    in
    record t errs
  in
  for _ = 1 to rounds_for ~seconds ~round_s:2.0 rounds do
    Array.iter one (round_specs rng)
  done;
  let lat = Array.of_list (List.rev !lat) in
  let n_ops = float_of_int (Array.length lat) in
  let accesses = counter reg "qp_sim_accesses_total" in
  let sim_s = Tracer.total "access_sim_run" in
  let self = Tracer.self_times () in
  let speed = Speed.factor () in
  {
    tally = t;
    e2e =
      [ m "op_p50_ms" "ms" (1000. *. median lat *. speed);
        m "ops_per_s" "1/s" (n_ops /. sum lat /. speed);
        m "avg_max_delay" "dist" (mean (Array.of_list !delays)) ];
    layers =
      W_solve.lp_layers reg ~n_ops
      @ W_solve.cache_layers ct
      @ [ m "sim.accesses" "count" (accesses /. n_ops);
          m "sim.s" "s" (sim_s /. n_ops);
          m "sim.accesses_per_s" "1/s" (ratio accesses sim_s);
          (* Runner.run has no span of its own around its solves:
             this is its time outside the simulation (instance build,
             both solves, the delay columns). *)
          m "scenario.solve_s" "s" ((Tracer.total "scenario" -. sim_s) /. n_ops);
          m "graph.topology_s" "s" (self "graph.topology" /. n_ops);
          m "graph.apsp_s" "s" (self "graph.apsp" /. n_ops) ];
    extra =
      [ m "scenario_p50_s" "s" (median lat);
        m "scenarios" "count" n_ops;
        m "scenarios_per_s" "1/s" (n_ops /. sum lat);
        m "speed_factor" "ratio" speed ];
    peak_rss_mb = vmhwm_mb ();
    op_times = Array.map (fun x -> x *. speed) lat;
    counts =
      [ ("lp.pivots", counter reg "qp_simplex_pivots_total");
        ("lp.solves", counter reg "qp_simplex_solves_total");
        ("sim.accesses", accesses);
        ("avg_max_delay", sum (Array.of_list !delays)) ];
  }
