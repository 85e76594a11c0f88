(* CPU affinity of whole processes, set thread by thread (Linux).

   The single-domain workloads (lp-general, geo-scenario) run on one
   CPU, so that each operation and the speed reference timed after it
   (see [Speed]) run on the same CPU. serve-mixed runs its light step
   with the generator, the server and the echo helper on one CPU: a
   wake-up is then a switch on that CPU, where across CPUs it depends
   on where the scheduler placed the processes, which on the shared
   machine this benchmark was written on changed from run to run and
   moved light-load latencies by a third (README.md). Failures are
   ignored: the work then runs unpinned. *)

external get : int -> int array = "qpb_get_affinity"
external set : int -> int array -> bool = "qpb_set_affinity"

(* The thread ids of process [pid], from /proc. *)
let tids pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | names -> List.filter_map int_of_string_opt (Array.to_list names)
  | exception Sys_error _ -> []

let set_processes pids cpus =
  List.iter (fun pid -> List.iter (fun tid -> ignore (set tid cpus)) (tids pid)) pids

(* Every thread of this process, and those it starts later, on the
   first CPU it may use. *)
let pin_self () =
  let all = get 0 in
  if Array.length all > 1 then set_processes [ Unix.getpid () ] [| all.(0) |]

(* Runs [f] with every thread of [pids] on the first CPU this thread
   may use, then gives them back this thread's CPUs. Threads that [f]
   starts inherit the one CPU. *)
let with_one_cpu pids f =
  let all = get 0 in
  if Array.length all <= 1 then f ()
  else begin
    set_processes pids [| all.(0) |];
    Fun.protect ~finally:(fun () -> set_processes pids all) f
  end
