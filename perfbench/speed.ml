(* Machine speed for the solve and scenario workloads, from a
   reference kernel timed after every operation.

   On the shared machine this benchmark was written on, memory-bound
   code switches between a fast and a slow state (about 1.7x apart)
   several times a second, and the share of time spent slow drifts from
   one minute to the next; a run of the dense simplex reads up to twice
   as slow in a slow minute. The kernel repeats what dominates an
   lp-general solve: pivot-style row-update sweeps over a 4 MB float
   matrix, the size of its simplex tableau and larger than the per-core
   L2. It is benchmark code, so no change to the program moves it.
   [factor] is the reference kernel time over this run's mean kernel
   time (a mean, so it follows the share of slow time): a time
   multiplied by it reads as on the reference machine in its usual
   state (a rate is divided by it). serve-mixed is not scaled: its
   latencies, spread over two processes and dominated by wake-ups, did
   not follow the kernel. *)

let rows = 512
let cols = 1024

(* Outside the OCaml heap, so it adds its 4 MB to the peak RSS and
   nothing to the collector's work. *)
let matrix =
  lazy
    (let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
     for i = 0 to (rows * cols) - 1 do
       a.{i} <- float_of_int ((i / cols) + (i mod cols)) *. 1e-3
     done;
     a)

let kernel () =
  let a = Lazy.force matrix in
  let t0 = Common.now () in
  for k = 0 to 23 do
    let piv = k * 7 * cols in
    for r = 0 to rows - 1 do
      if r <> k * 7 then begin
        let row = r * cols in
        let f = 1e-9 *. Bigarray.Array1.unsafe_get a (row + k) in
        for c = 0 to cols - 1 do
          Bigarray.Array1.unsafe_set a (row + c)
            (Bigarray.Array1.unsafe_get a (row + c) -. (f *. Bigarray.Array1.unsafe_get a (piv + c)))
        done
      end
    done
  done;
  Common.now () -. t0

(* The kernel's mean time on the reference machine (2-vCPU Xeon, 2 MB
   of L2 per core) over five lp-general runs. *)
let reference_s = 0.0212

let samples = ref []
let reset () = samples := []

(* Samples taken after an operation of [op_s] seconds: at least one,
   and enough to fill 15% of the operation's time, so that every run
   gathers about a hundred samples whatever its operations' length. *)
let sample_after op_s =
  let spent = ref 0. in
  while !spent = 0. || !spent < 0.15 *. op_s do
    let k = kernel () in
    samples := k :: !samples;
    spent := !spent +. k
  done

(* 1 before any sample. *)
let factor () =
  match !samples with
  | [] -> 1.
  | s -> reference_s /. Common.mean (Array.of_list s)
