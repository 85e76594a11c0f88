(* Shared plumbing for the benchmark workloads: clocks, order
   statistics, resource readings, metric scoping, and the per-run
   tally of attempted and failed operations. *)

module Json = Qp_obs.Json
module Metrics = Qp_obs.Metrics

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between closest ranks (the numpy default), on a
   sorted copy. Empty input gives nan so a missing sample never reads
   as a measured zero. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = percentile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0. xs

(* 0 instead of nan for ratios over work that never ran, so the
   per-layer table always holds a number: a layer a workload bypasses
   reads as zero work. *)
let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let vmhwm_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* A counter the library exports, read from the registry the
   benchmark scoped its calls to (pool workers merge theirs back). *)
let counter reg name = Metrics.counter_value (Metrics.counter reg name)

(* How many rounds a run makes: [rounds] when given, otherwise as many
   as fit [seconds] at the round's nominal duration on the reference
   machine (2 cores). The count does not depend on measured speed, so
   runs of one seed always do the same work. *)
let rounds_for ~seconds ~round_s = function
  | Some k -> k
  | None -> max 1 (int_of_float (Float.round (seconds /. round_s)))

(* Outcome tally: every operation attempted, and every one that failed
   or failed a check, with the first few reasons kept for the log. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let fail t reason =
  t.failed <- t.failed + 1;
  if List.length t.reasons < 8 then t.reasons <- reason :: t.reasons

(* One operation: counts as attempted, and as failed once however many
   failure [reasons] it has. *)
let record t reasons =
  t.attempted <- t.attempted + 1;
  match reasons with [] -> () | r :: _ -> fail t r

(* Equal within 1e-9 relative. *)
let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

(* A workload's result: named values with units. [e2e] feeds the
   untraced run's metrics, [layers] the traced run's, [extra] is
   printed for the reader only. *)
type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type result = {
  tally : tally;
  e2e : metric list;
  layers : metric list;
  extra : metric list;
  op_times : float array; (* per operation, in order, as op_p50_ms uses them *)
  peak_rss_mb : float; (* of the process that does the work *)
  counts : (string * float) list;
      (* deterministic work counts, for the determinism self-test *)
}

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
       ms)
