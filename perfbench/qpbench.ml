(* qpbench: runs one benchmark workload and prints its metrics.

     qpbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 [--rounds K] [--t0 EPOCH] [--setup-probe] [--spans FILE]

   Workloads: lp-general, tree-scale, serve-mixed, geo-scenario (see
   README.md). Inputs are generated from --seed. The untraced run
   (--trace 0) reports end-to-end metrics. The traced run (--trace 1)
   makes the same calls with a trace sink installed and reports
   per-layer metrics; a short untraced phase before and after it gives
   the tracing overhead. --rounds fixes the amount of work
   (the determinism self-test uses it).
   --t0 is the wall-clock time the caller started this process; set-up
   time is measured from it. --setup-probe stops at the first timed
   operation and reports only the set-up time.

   The last line of standard output is one JSON object. *)

open Common

exception Setup_done of float

let workloads = [ "lp-general"; "tree-scale"; "serve-mixed"; "geo-scenario" ]

let run_workload name =
  match name with
  | "lp-general" -> W_solve.run W_solve.Lp_general
  | "tree-scale" -> W_solve.run W_solve.Tree_scale
  | "serve-mixed" -> W_serve.run
  | "geo-scenario" -> W_geo.run
  | _ -> invalid_arg name

let usage () =
  prerr_endline
    "usage: qpbench.exe --workload (lp-general|tree-scale|serve-mixed|geo-scenario) \
     --seed N --seconds S --trace 0|1 [--rounds K] [--t0 EPOCH] [--setup-probe] \
     [--spans FILE]";
  exit 2

(* Every per-layer metric, in BENCHMARK.json order. A traced run
   reports all of them; a layer the workload never reaches reads 0. *)
let layer_metrics =
  [ ("lp.simplex_s", "s"); ("lp.solves", "count"); ("lp.pivots", "count");
    ("lp.pivots_per_lp", "count"); ("lp.us_per_pivot", "us"); ("lp.rows_per_lp", "count");
    ("lp.cols_per_lp", "count"); ("lp.revised_share", "ratio");
    ("place.lp_build_s", "s"); ("place.candidates", "count"); ("place.filter_s", "s");
    ("place.round_s", "s"); ("place.delay_eval_s", "s"); ("place.relay_s", "s");
    ("place.lb_gap", "ratio"); ("place.tree_verify_s", "s"); ("place.tree_search_s", "s");
    ("place.tree_search_nodes", "count"); ("graph.topology_s", "s"); ("graph.apsp_s", "s");
    ("graph.apsp_cache_hit_ratio", "ratio"); ("graph.apsp_cache_mb", "MB");
    ("instance.problem_s", "s");
    ("serve.parse_ms.p50", "ms"); ("serve.queue_ms.p50", "ms"); ("serve.queue_ms.p99", "ms");
    ("serve.handle_ms.solve.p50", "ms"); ("serve.handle_ms.update.p50", "ms");
    ("serve.wire_ms.p50", "ms"); ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_evictions", "count"); ("serve.inflight_joins", "count");
    ("sim.accesses", "count"); ("sim.s", "s"); ("sim.accesses_per_s", "1/s");
    ("scenario.solve_s", "s"); ("gen.lag_ms.p99", "ms"); ("gen.backlog_end", "count");
    ("trace.overhead_pct", "%") ]

let complete_layers given =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x when Float.is_finite x.value -> x
      | _ -> m name unit_ 0.)
    layer_metrics

(* Tracing overhead, in percent: over the first [k] operations, the
   median ratio of each operation's time with spans to its mean time
   without, run once before and once after the traced run (same inputs,
   same order, so each ratio compares one input with itself and
   warm-up favours neither side). *)
let overhead_pct plain1 traced plain2 =
  let k = min (Array.length traced) (min (Array.length plain1) (Array.length plain2)) in
  if k = 0 then 0.
  else
    100.
    *. (median (Array.init k (fun i -> traced.(i) /. ((plain1.(i) +. plain2.(i)) /. 2.))) -. 1.)

let () =
  let t_start = now () in
  (match Sys.argv with
  | [| _; "--serve-child"; live_seed |] -> W_serve.serve_child (int_of_string live_seed)
  | [| _; "--echo-child" |] -> W_serve.echo_child ()
  | _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rounds = ref None and t0 = ref nan and probe = ref false and spans = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--rounds" :: v :: r -> rounds := Some (int_of_string v); parse r
    | "--t0" :: v :: r -> t0 := float_of_string v; parse r
    | "--setup-probe" :: r -> probe := true; parse r
    | "--spans" :: v :: r -> spans := Some v; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then usage ();
  let t0 = if Float.is_nan !t0 then t_start else !t0 in
  let setup = ref nan in
  let on_first_op () =
    if Float.is_nan !setup then begin
      setup := now () -. t0;
      if !probe then raise (Setup_done !setup)
    end
  in
  let run = run_workload !workload ~seed:!seed ~seconds:!seconds in
  match
    if !trace = 0 then `Plain (run ~rounds:!rounds ~traced:false ~on_first_op)
    else begin
      (* One round: of the solve and scenario workloads, or the light
         step of serve-mixed. *)
      let plain1 = run ~rounds:(Some 1) ~traced:false ~on_first_op in
      Qp_graph.Metric.reset_apsp_cache ();
      Tracer.enabled := true;
      let traced = run ~rounds:!rounds ~traced:true ~on_first_op:ignore in
      Tracer.enabled := false;
      Qp_graph.Metric.reset_apsp_cache ();
      let plain2 = run ~rounds:(Some 1) ~traced:false ~on_first_op:ignore in
      `Traced (plain1, traced, plain2)
    end
  with
  | exception Setup_done s ->
      print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Float s) ]))
  | outcome ->
      let res, metrics =
        match outcome with
        | `Plain r ->
            (r, r.e2e @ [ m "setup_s" "s" !setup; m "peak_rss_mb" "MB" r.peak_rss_mb ])
        | `Traced (plain1, r, plain2) ->
            let phases = [ plain1; r; plain2 ] in
            ( { r with
                tally =
                  { attempted = List.fold_left (fun a x -> a + x.tally.attempted) 0 phases;
                    failed = List.fold_left (fun a x -> a + x.tally.failed) 0 phases;
                    reasons = List.concat_map (fun x -> x.tally.reasons) phases } },
              complete_layers
                (m "trace.overhead_pct" "%"
                   (overhead_pct plain1.op_times r.op_times plain2.op_times)
                 :: r.layers) )
      in
      (match !spans with Some path when !trace = 1 -> Tracer.write path | _ -> ());
      List.iter (fun reason -> Printf.printf "check failed: %s\n" reason) res.tally.reasons;
      let error_rate =
        m "error_rate" "ratio"
          (ratio (float_of_int res.tally.failed) (float_of_int res.tally.attempted))
      in
      List.iter
        (fun x -> Printf.printf "%-28s %14.6g %s\n" x.name x.value x.unit_)
        (metrics @ res.extra @ [ error_rate ]);
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("correct", Json.Bool (res.tally.failed = 0));
                ("attempted", Json.Int res.tally.attempted);
                ("failed", Json.Int res.tally.failed);
                ("metrics", metrics_json metrics);
                ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) res.counts)) ]))
