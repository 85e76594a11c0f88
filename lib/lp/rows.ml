(* Off-heap float64 rows, their compressed snapshots, and a stash of
   reusable working buffers — the storage shared by the dense tableau
   and the revised path's basis inverse. *)

module A1 = Bigarray.Array1

type row = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let make ncols : row =
  let r = A1.create Bigarray.float64 Bigarray.c_layout ncols in
  A1.fill r 0.;
  r

type snapshot = {
  n_rows : int;
  start : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t; (* n_rows + 1 *)
  col : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
  value : row;
}

(* Every cell whose bits are not those of +0. is kept, -0. included,
   so a restore reproduces the snapshotted rows bit for bit. *)
let stored v = v <> 0. || Float.sign_bit v

let snapshot (rows : row array) ~n_rows ~ncols =
  let nnz = ref 0 in
  for i = 0 to n_rows - 1 do
    let r = rows.(i) in
    for j = 0 to ncols - 1 do
      if stored (A1.unsafe_get r j) then incr nnz
    done
  done;
  let start = A1.create Bigarray.int Bigarray.c_layout (n_rows + 1) in
  let col = A1.create Bigarray.int32 Bigarray.c_layout !nnz in
  let value = A1.create Bigarray.float64 Bigarray.c_layout !nnz in
  let k = ref 0 in
  for i = 0 to n_rows - 1 do
    start.{i} <- !k;
    let r = rows.(i) in
    for j = 0 to ncols - 1 do
      let v = A1.unsafe_get r j in
      if stored v then begin
        col.{!k} <- Int32.of_int j;
        value.{!k} <- v;
        incr k
      end
    done
  done;
  start.{n_rows} <- !k;
  { n_rows; start; col; value }

let restore s (rows : row array) =
  for i = 0 to s.n_rows - 1 do
    let r = rows.(i) in
    A1.fill r 0.;
    for k = s.start.{i} to s.start.{i + 1} - 1 do
      r.{Int32.to_int s.col.{k}} <- s.value.{k}
    done
  done

type 'a stash = { lock : Mutex.t; mutable free : 'a list }

let stash () = { lock = Mutex.create (); free = [] }

let take st =
  Mutex.protect st.lock (fun () ->
      match st.free with
      | x :: rest ->
          st.free <- rest;
          Some x
      | [] -> None)

let give st x = Mutex.protect st.lock (fun () -> st.free <- x :: st.free)
