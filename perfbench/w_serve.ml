(* serve-mixed: a qp_serve server (2 worker domains, the default
   256-entry placement cache) in its own process, driven open-loop by
   this process with Poisson arrivals over nproc connections.

   Requests, drawn from the run seed, in a synthetic mix: no traffic
   record exists to derive it from, so its shares are chosen, not
   measured (README.md says which numbers they drive):
   - 80% full-spec [solve], [alg=auto] over tree/grid/majority specs,
     zipf-drawn from a catalogue twice the cache's size, so evictions
     and misses persist;
   - 8% spec-less [solve] on the server's live instance;
   - 8% [update] writes (a new length for one edge of the live tree),
     which bump the generation and run the incremental APSP;
   - 4% [health].

   Rate steps run one after another, each drained before the next:
   [light] (server mostly idle), [heavy] (below the knee, with
   queueing), then a ladder above [heavy] that stops at the first step
   missing the latency limit; the highest step that meets it is
   [max_rps_at_slo]. Each request is timed from its scheduled send
   time.

   Each connection carries one request at a time. Pipelining several
   requests on one connection would run into Nagle/delayed-ACK stalls:
   neither the server nor the client sets TCP_NODELAY, and the
   resulting latencies switch between two modes from run to run
   (README.md). With one request in flight per connection the server
   sees at most nproc requests at once, so its admission queue never
   rejects, and a request due while every connection is busy waits in
   the generator, which counts in its latency.

   op_p50_ms is the light step's median round trip (send to reply) net
   of the median round trip of a bare loopback echo, timed at the same
   time against a helper process of this benchmark: on the shared
   machine the wake-ups of an idle machine take a large, drifting share
   of a light-load round trip, and the echo pays the same wake-ups but
   none of the request path (README.md). *)

open Common
module Rng = Qp_util.Rng
module Spec = Qp_instance.Spec
module Protocol = Qp_serve.Protocol
module Client = Qp_serve.Client
module Server = Qp_serve.Server
module Solver = Qp_place.Solver
module Serialize = Qp_place.Serialize
module Delta = Qp_instance.Delta

let server_jobs = 2
let catalogue_size = 2 * Server.default_config.Server.cache_capacity
let light_rps = 250.
let heavy_rps = 1000.
let ladder = [| 1.5; 2.; 2.5; 3.; 4. |] (* multiples of heavy_rps *)
let slo_p99_ms = 25.
let lag_limit_ms = 5.
let warmup_rps = 600.
let warmup_s = 2.5
let echo_rps = 200.

(* The live instance the server starts from; spec-less solves and
   updates act on it. *)
let live_spec seed =
  { Spec.topology = "tree"; nodes = 96; system = "grid:2"; cap_slack = 1.0;
    seed; jobs = 1 }

let options = { Protocol.default_options with Protocol.algorithm = "auto" }

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

let serve_child live_seed =
  let cfg =
    { Server.default_config with
      Server.port = 0; jobs = server_jobs; default_spec = live_spec live_seed }
  in
  match
    Server.run ~ready:(fun port -> Printf.printf "PORT %d\n%!" port) cfg
  with
  | Ok () -> exit 0
  | Error e ->
      prerr_endline (Qp_util.Qp_error.to_string e);
      exit 3

type server = { pid : int; port : int; out : in_channel }

let spawn_server live_seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-child"; string_of_int live_seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | line -> Scanf.sscanf line "PORT %d" (fun port -> { pid; port; out })
  | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith "server exited before it was ready"

let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

let stop_server s =
  (match Client.connect ~port:s.port ~timeout_ms:5000 () with
  | Ok c ->
      ignore (Client.call c (Protocol.request Protocol.Shutdown));
      Client.close c
  | Error _ -> (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  wait_exit s.pid;
  close_in_noerr s.out

(* ------------------------------------------------------------------ *)
(* The echo reference                                                  *)
(* ------------------------------------------------------------------ *)

(* A helper process that echoes fixed-size messages on one loopback
   TCP connection: a round trip to it costs the two processes' wake-ups
   and the loopback, as a request's does, and no request path. *)
let echo_len = 64

let rec really_read fd buf off len =
  if len > 0 then begin
    let k = Unix.read fd buf off len in
    if k = 0 then raise End_of_file;
    really_read fd buf (off + k) (len - k)
  end

let echo_child () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen s 1;
  (match Unix.getsockname s with
  | Unix.ADDR_INET (_, port) -> Printf.printf "PORT %d\n%!" port
  | _ -> exit 3);
  let c, _ = Unix.accept s in
  let buf = Bytes.create echo_len in
  (try
     while true do
       really_read c buf 0 echo_len;
       ignore (Unix.write c buf 0 echo_len)
     done
   with End_of_file | Unix.Unix_error _ -> ());
  exit 0

type echo = { echo_pid : int; fd : Unix.file_descr }

let spawn_echo () =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--echo-child" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let port =
    Fun.protect ~finally:(fun () -> close_in_noerr out) @@ fun () ->
    match input_line out with
    | line -> Scanf.sscanf line "PORT %d" Fun.id
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        failwith "echo helper exited before it was ready"
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> { echo_pid = pid; fd }
  | exception e ->
      Unix.close fd;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* Closing the connection ends the helper. *)
let stop_echo e =
  Unix.close e.fd;
  ignore (Unix.waitpid [] e.echo_pid)

(* Round trips, in ms, at Poisson times of [rate] over [duration]
   seconds from now, paced like the generator's requests. *)
let echo_rtts e rng ~rate ~duration =
  let buf = Bytes.make echo_len 'x' in
  let start = now () in
  let t = ref 0. and out = ref [] in
  while
    t := !t +. Rng.exponential rng rate;
    !t < duration
  do
    let d = start +. !t -. now () in
    if d > 0. then Thread.delay d;
    let t0 = now () in
    ignore (Unix.write e.fd buf 0 echo_len);
    really_read e.fd buf 0 echo_len;
    out := (1000. *. (now () -. t0)) :: !out
  done;
  Array.of_list !out

(* ------------------------------------------------------------------ *)
(* Generated requests                                                  *)
(* ------------------------------------------------------------------ *)

type kind = Full of int (* catalogue index *) | Live_solve | Update | Health

let kind_name = function
  | Full _ -> "solve"
  | Live_solve -> "solve_live"
  | Update -> "update"
  | Health -> "health"

let catalogue rng =
  Array.init catalogue_size (fun i ->
      let seed = 1 + Rng.int rng 1_000_000_000 in
      let topology, nodes, system =
        match i mod 3 with
        | 0 -> ("tree", 32 + Rng.int rng 33, "grid:2")
        | 1 -> ("waxman", 16 + Rng.int rng 17, "grid:3")
        | _ -> ("waxman", 16 + Rng.int rng 17, "majority:5:3")
      in
      { Spec.topology; nodes; system; cap_slack = 1.0; seed; jobs = 1 })

type gen = {
  specs : Spec.t array;
  zipf_cdf : float array; (* over catalogue ranks *)
  rank_to_spec : int array;
  live_edges : (int * int) array;
  rng : Rng.t;
}

let make_gen seed =
  let rng = Rng.create seed in
  let specs = catalogue rng in
  let w = Array.init catalogue_size (fun k -> 1. /. float_of_int (k + 1)) in
  let total = sum w in
  let acc = ref 0. in
  let zipf_cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let rank_to_spec = Rng.permutation rng catalogue_size in
  let live_seed = 1 + Rng.int rng 1_000_000_000 in
  let ls = live_spec live_seed in
  let g =
    match Spec.build_topology ls.Spec.topology ls.Spec.nodes (Rng.create live_seed) with
    | Ok g -> g
    | Error e -> failwith (Qp_util.Qp_error.to_string e)
  in
  let live_edges =
    Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Qp_graph.Graph.edges g))
  in
  ({ specs; zipf_cdf; rank_to_spec; live_edges; rng }, live_seed)

let draw_kind g =
  let x = Rng.uniform g.rng in
  if x < 0.80 then begin
    let y = Rng.uniform g.rng in
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if g.zipf_cdf.(mid) < y then find (mid + 1) hi else find lo mid
    in
    Full g.rank_to_spec.(find 0 (catalogue_size - 1))
  end
  else if x < 0.88 then Live_solve
  else if x < 0.96 then Update
  else Health

let request g ~id ~traced kind =
  let trace =
    if traced then Some { Protocol.trace_id = Printf.sprintf "qpb-%d" id; parent_span = None }
    else None
  in
  let id = Json.Int id in
  match kind with
  | Full i -> Protocol.request ~id ~spec:g.specs.(i) ~options ?trace Protocol.Solve
  | Live_solve -> Protocol.request ~id ~options ?trace Protocol.Solve
  | Update ->
      let u, v = g.live_edges.(Rng.int g.rng (Array.length g.live_edges)) in
      let length = 0.5 +. Rng.float g.rng 1.5 in
      Protocol.request ~id ~delta:[ Delta.Set_edge { u; v; length } ] ?trace Protocol.Update
  | Health -> Protocol.request ~id ?trace Protocol.Health

(* ------------------------------------------------------------------ *)
(* One open-loop rate step                                             *)
(* ------------------------------------------------------------------ *)

type req = {
  kind : kind;
  wire : Protocol.request;
  due : float; (* absolute scheduled send time *)
  mutable sent : float;
  mutable lag : float; (* see [run_step] *)
  mutable fin : float; (* nan until answered *)
  mutable ok : bool;
  mutable result : string; (* serialized solve result, "" otherwise *)
  mutable timing : (string * float) list;
  mutable error : string; (* error code of a failed answer *)
}

type step = { rate : float; reqs : req array }

let make_step g ~rate ~duration ~traced ~first_id ~start =
  let reqs = ref [] and t = ref 0. and k = ref 0 in
  while
    t := !t +. Rng.exponential g.rng rate;
    !t < duration
  do
    let kind = draw_kind g in
    reqs :=
      { kind; wire = request g ~id:(first_id + !k) ~traced kind; due = start +. !t;
        sent = nan; lag = nan; fin = nan; ok = false; result = ""; timing = []; error = "" }
      :: !reqs;
    incr k
  done;
  { rate; reqs = Array.of_list (List.rev !reqs) }

let sleep_until t =
  let d = t -. now () in
  if d > 0. then Thread.delay d

(* One thread per connection takes the earliest request not yet taken,
   waits for its due time, sends it and reads the reply; a request due
   while every connection is busy waits for one, and that wait counts
   in its latency. [lag] is how late a free thread woke for its
   request: the generator's own scheduling error. *)
let run_step clients step =
  let next = Atomic.make 0 in
  let n = Array.length step.reqs in
  let worker client () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = step.reqs.(i) in
        let free_at = now () in
        sleep_until r.due;
        r.sent <- now ();
        r.lag <- r.sent -. Float.max r.due free_at;
        match Client.call client r.wire with
        | Ok resp ->
            r.fin <- now ();
            r.ok <- resp.Protocol.id = r.wire.Protocol.id && Result.is_ok resp.Protocol.payload;
            (match (r.kind, resp.Protocol.payload) with
            | Full _, Ok payload -> r.result <- Json.to_string payload
            | _, Error e ->
                r.error <- Protocol.serve_error_code e ^ ": " ^ Protocol.serve_error_message e
            | _ -> ());
            r.timing <- Option.value resp.Protocol.timing ~default:[];
            loop ()
        | Error e -> r.error <- Qp_util.Qp_error.to_string e
      end
    in
    loop ()
  in
  List.iter Thread.join
    (Array.to_list (Array.map (fun c -> Thread.create (worker c) ()) clients))

(* ------------------------------------------------------------------ *)
(* Step statistics                                                     *)
(* ------------------------------------------------------------------ *)

let answered st = List.filter (fun r -> not (Float.is_nan r.fin)) (Array.to_list st.reqs)
let lat_ms st = Array.of_list (List.map (fun r -> 1000. *. (r.fin -. r.due)) (answered st))

(* Send to reply, without the wait for a free connection. *)
let rtt_ms st = Array.of_list (List.map (fun r -> 1000. *. (r.fin -. r.sent)) (answered st))

let lag_ms st =
  Array.of_list
    (List.filter_map
       (fun r -> if Float.is_nan r.sent then None else Some (1000. *. r.lag))
       (Array.to_list st.reqs))

(* Requests due by the step's last due time and still unanswered then. *)
let backlog_end st =
  let n = Array.length st.reqs in
  if n = 0 then 0
  else
    let last = st.reqs.(n - 1).due in
    Array.fold_left
      (fun acc r -> if Float.is_nan r.fin || r.fin > last then acc + 1 else acc)
      0 st.reqs

let failed_in st =
  Array.fold_left (fun acc r -> if r.ok then acc else acc + 1) 0 st.reqs

(* The backlog grows when requests due late in the step wait clearly
   longer than those due early in it (medians, so a few slow misses do
   not decide it). *)
let backlog_grows st =
  let l = lat_ms st in
  let q = Array.length l / 4 in
  q >= 8
  && median (Array.sub l (Array.length l - q) q) > (2. *. median (Array.sub l 0 q)) +. 1.

(* A step meets the limit when every request was answered without
   error within the p99 limit, the generator kept its schedule, and
   the backlog did not grow. *)
let meets_slo st =
  failed_in st = 0
  && percentile (lat_ms st) 0.99 <= slo_p99_ms
  && percentile (lag_ms st) 0.99 <= lag_limit_ms
  && not (backlog_grows st)

let throughput st =
  match answered st with
  | [] -> 0.
  | rs ->
      let first = List.fold_left (fun a r -> Float.min a r.due) infinity rs in
      let last = List.fold_left (fun a r -> Float.max a r.fin) neg_infinity rs in
      float_of_int (List.length rs) /. (last -. first)

(* ------------------------------------------------------------------ *)
(* Checks after the run                                                *)
(* ------------------------------------------------------------------ *)

(* Every full-spec answer for one spec must be the same bytes. The
   specs served in the [quality] steps, whose requests the seed fixes,
   give the returned delays; a sample of them is solved offline
   through the same spec-to-params mapping and must match byte for byte
   and pass the outcome checks. *)
let check_served g steps ~quality =
  let first = Hashtbl.create 256 in
  let errs = ref [] and delays = ref [] in
  let err s = errs := s :: !errs in
  List.iter
    (fun st ->
      Array.iter
        (fun r ->
          match r.kind with
          | Full i when r.ok -> (
              match Hashtbl.find_opt first i with
              | None -> Hashtbl.add first i r.result
              | Some b -> if b <> r.result then err "served bytes differ between answers")
          | _ -> ())
        st.reqs)
    steps;
  let in_quality = Hashtbl.create 256 in
  List.iter
    (fun st ->
      Array.iter
        (fun r -> match r.kind with Full i when r.ok -> Hashtbl.replace in_quality i () | _ -> ())
        st.reqs)
    quality;
  let served =
    List.sort compare
      (List.filter (fun (i, _) -> Hashtbl.mem in_quality i) (List.of_seq (Hashtbl.to_seq first)))
  in
  List.iteri
    (fun k (i, bytes) ->
      match Serialize.outcome_of_string bytes with
      | Error _ -> err "served outcome does not parse"
      | Ok o ->
          delays := o.Qp_place.Outcome.avg_max_delay :: !delays;
          if k < 24 then begin
            let spec = g.specs.(i) in
            match Spec.build spec with
            | Error e -> err (Qp_util.Qp_error.to_string e)
            | Ok p -> (
                errs := List.rev_append (Check.outcome p o) !errs;
                match
                  (Solver.find_exn "auto").Solver.solve (Protocol.solver_params spec options) p
                with
                | Ok o' ->
                    if Json.to_string (Serialize.outcome_to_json o') <> bytes then
                      err "served placement differs from the offline solve"
                | Error e -> err (Qp_util.Qp_error.to_string e))
          end)
    served;
  (List.rev !errs, Array.of_list !delays)

let health_cache port =
  match Client.connect ~port ~timeout_ms:5000 () with
  | Error _ -> []
  | Ok c ->
      let r = Client.call c (Protocol.request Protocol.Health) in
      Client.close c;
      let field k j = Option.bind (Json.member k j) Json.to_int in
      (match r with
      | Ok { Protocol.payload = Ok j; _ } -> (
          match Json.member "solve_cache" j with
          | Some sc ->
              List.filter_map
                (fun k -> Option.map (fun v -> (k, float_of_int v)) (field k sc))
                [ "hits"; "misses"; "inflight_joins"; "evictions" ]
          | None -> [])
      | _ -> [])

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~rounds ~traced ~on_first_op =
  let g, live_seed = make_gen seed in
  let server = spawn_server live_seed in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let conns = Domain.recommended_domain_count () in
  let clients =
    Array.init conns (fun _ ->
        match Client.connect ~port:server.port ~timeout_ms:30_000 () with
        | Ok c -> c
        | Error e -> failwith (Qp_util.Qp_error.to_string e))
  in
  Fun.protect ~finally:(fun () -> Array.iter Client.close clients) @@ fun () ->
  (* Plan: the light and heavy steps, then the ladder; about [seconds]
     in all. [rounds] keeps the first steps of that order only. *)
  let limit = Option.value rounds ~default:max_int in
  let steps = ref [] and next_id = ref 0 and rss = ref nan in
  let rate_step (rate, duration) =
    let st = make_step g ~rate ~duration ~traced ~first_id:!next_id ~start:(now () +. 0.05) in
    next_id := !next_id + Array.length st.reqs;
    run_step clients st;
    steps := st :: !steps;
    st
  in
  on_first_op ();
  (* Warm-up: fill the placement cache so the steps measure its steady
     state, not its first fill. Its latencies are not reported; its
     answers are checked like the others. *)
  let warm = make_step g ~rate:warmup_rps ~duration:warmup_s ~traced ~first_id:0 ~start:(now ()) in
  next_id := Array.length warm.reqs;
  run_step clients warm;
  (* The light step, with the echo reference timed beside it, on one
     CPU (see [Affinity]). *)
  let echo_ms =
    if limit = 0 then [||]
    else begin
      let e = spawn_echo () in
      Fun.protect ~finally:(fun () -> stop_echo e) @@ fun () ->
      let duration = 0.45 *. seconds and echo_rng = Rng.split g.rng in
      let echoes = ref [||] in
      Affinity.with_one_cpu [ Unix.getpid (); server.pid; e.echo_pid ] (fun () ->
          let th =
            Thread.create (fun () -> echoes := echo_rtts e echo_rng ~rate:echo_rps ~duration) ()
          in
          Fun.protect ~finally:(fun () -> Thread.join th) (fun () ->
              ignore (rate_step (light_rps, duration))));
      if !echoes = [||] then failwith "the echo reference made no round trip";
      !echoes
    end
  in
  if limit > 1 then ignore (rate_step (heavy_rps, 0.2 *. seconds));
  (* Server memory after the light and heavy steps, whose requests
     the seed fixes; the ladder's length depends on the machine. *)
  rss := vmhwm_mb ~pid:server.pid ();
  (* The ladder stops at its first step that misses the limit. *)
  (try
     Array.iteri
       (fun j k ->
         if 2 + j < limit && not (meets_slo (rate_step (k *. heavy_rps, 0.07 *. seconds))) then
           raise Exit)
       ladder
   with Exit -> ());
  let steps = List.rev !steps in
  (* Every request sent, for the tally, the byte checks and the counts. *)
  let issued = warm :: steps in
  let cache = health_cache server.port in
  let step k = List.nth_opt steps k in
  let t = tally () in
  List.iter
    (fun st ->
      Array.iter
        (fun r ->
          record t
            (if r.ok then []
             else [ Printf.sprintf "%s request failed %s" (kind_name r.kind) r.error ]))
        st.reqs)
    issued;
  let errs, delays =
    check_served g issued ~quality:(List.filteri (fun i _ -> i < 2) steps)
  in
  List.iter (fail t) errs;
  let stat k f = match step k with Some st -> f st | None -> 0. in
  let p q k = stat k (fun st -> percentile (lat_ms st) q) in
  let max_rps =
    List.fold_left (fun acc st -> if meets_slo st then Float.max acc st.rate else acc) 0. steps
  in
  let all = List.concat_map (fun st -> Array.to_list st.reqs) steps in
  let phase name pred =
    Array.of_list
      (List.filter_map
         (fun r -> if pred r then Option.map (fun s -> 1000. *. s) (List.assoc_opt name r.timing) else None)
         all)
  in
  let is_solve r = match r.kind with Full _ | Live_solve -> true | _ -> false in
  let wire =
    Array.of_list
      (List.filter_map
         (fun r ->
           if Float.is_nan r.fin || r.timing = [] then None
           else
             Some (1000. *. (r.fin -. r.sent -. List.fold_left (fun a (_, s) -> a +. s) 0. r.timing)))
         all)
  in
  if traced then
    List.iter
      (fun r ->
        if not (Float.is_nan r.fin) then
          match r.wire.Protocol.id with
          | Json.Int id ->
              Tracer.add ~op:id ("serve." ^ kind_name r.kind) ~start:r.sent ~stop:r.fin
          | _ -> ())
      all;
  let c k = Option.value (List.assoc_opt k cache) ~default:0. in
  let lookups = c "hits" +. c "misses" +. c "inflight_joins" in
  let by_verb =
    List.map
      (fun k ->
        ( "requests." ^ k,
          float_of_int
            (List.length
               (List.filter (fun r -> kind_name r.kind = k)
                  (List.concat_map (fun st -> Array.to_list st.reqs) issued))) ))
      [ "solve"; "solve_live"; "update"; "health" ]
  in
  let gen_extra =
    List.concat
      (List.mapi
         (fun k st ->
           let tag = Printf.sprintf "step%d_%.0frps" k st.rate in
           [ m (tag ^ ".p50_ms") "ms" (percentile (lat_ms st) 0.5);
             m (tag ^ ".p99_ms") "ms" (percentile (lat_ms st) 0.99);
             m (tag ^ ".lag_p99_ms") "ms" (percentile (lag_ms st) 0.99);
             m (tag ^ ".backlog_end") "count" (float_of_int (backlog_end st));
             m (tag ^ ".backlog_grows") "bool" (if backlog_grows st then 1. else 0.);
             m (tag ^ ".meets_slo") "bool" (if meets_slo st then 1. else 0.) ])
         steps)
  in
  {
    tally = t;
    e2e =
      [ (* The light step's median round trip net of the echo's. *)
        m "op_p50_ms" "ms" (stat 0 (fun st -> median (rtt_ms st) -. median echo_ms));
        (* Completed requests per second at the heavy rate: the
           schedule sets it, so it moves only if the server falls
           behind that rate. *)
        m "ops_per_s" "1/s" (stat 1 throughput);
        m "avg_max_delay" "dist" (mean delays) ];
    layers =
      [ m "serve.parse_ms.p50" "ms" (median (phase "parse" (fun _ -> true)));
        m "serve.queue_ms.p50" "ms" (median (phase "queue" (fun _ -> true)));
        m "serve.queue_ms.p99" "ms" (percentile (phase "queue" (fun _ -> true)) 0.99);
        m "serve.handle_ms.solve.p50" "ms" (median (phase "handle" is_solve));
        m "serve.handle_ms.update.p50" "ms" (median (phase "handle" (fun r -> r.kind = Update)));
        m "serve.wire_ms.p50" "ms" (median wire);
        m "serve.cache_hit_ratio" "ratio" (ratio (c "hits") lookups);
        m "serve.cache_evictions" "count" (c "evictions");
        m "serve.inflight_joins" "count" (c "inflight_joins");
        m "gen.lag_ms.p99" "ms" (percentile (Array.concat (List.map lag_ms steps)) 0.99);
        m "gen.backlog_end" "count"
          (float_of_int (List.fold_left (fun a st -> max a (backlog_end st)) 0 steps)) ];
    extra =
      [ m "req_p50_ms.light" "ms" (p 0.5 0); m "req_p99_ms.light" "ms" (p 0.99 0);
        m "req_p50_ms.heavy" "ms" (p 0.5 1); m "req_p99_ms.heavy" "ms" (p 0.99 1);
        m "max_rps_at_slo" "1/s" max_rps;
        m "rtt_p50_ms.light" "ms" (stat 0 (fun st -> median (rtt_ms st)));
        m "echo_rtt_p50_ms" "ms" (median echo_ms) ]
      @ gen_extra;
    peak_rss_mb = !rss;
    op_times = (match step 0 with Some st -> lat_ms st | None -> [||]);
    counts = by_verb @ [ ("avg_max_delay", sum delays) ];
  }
