(* Revised simplex with an explicit dense basis inverse.

   The dense two-phase path materializes the full m x ncols tableau.
   For the placement LPs the column count is dominated by slacks and
   artificials (ncols ≈ n + 2m), so the tableau costs ~2m² floats of
   memory; a dense pivot costs rows touched x pivot-row nonzeros (134
   x 103 of 525 x 741 on the n=12 grid:3 LPs). This path keeps only:

     - the constraint matrix as immutable sparse columns (built once),
     - B⁻¹, a dense m x m matrix of off-heap rows updated by
       product-form pivots,
     - the basic solution xb = B⁻¹ b.

   Per pivot: one BTRAN (y = c_B B⁻¹, m² flops, skipping zero basic
   costs), pricing over sparse columns (O(nnz)), one FTRAN
   (w = B⁻¹ A_q, m·nnz_q flops), and a B⁻¹ update over the rows with
   w_i ≠ 0 and the pivot row's nonzeros — about half the dense
   memory, with the constraint data itself never copied.

   Phase 1 depends only on the rows, so it runs once per [prepared]
   problem: its final B⁻¹ is snapshotted (Rows) and every phase 2
   restores it into a working state taken from the prepared problem's
   stash.

   Pivot rules, tolerances, stall→Bland switch, pivot budget, warm
   crash and deadline semantics mirror Simplex's dense path so the two
   are interchangeable (equivalence is property-tested); they differ
   only in float rounding, which is why auto-selection keeps seed-size
   LPs on the historical dense path. *)

let eps_rc = 1e-9
let eps_piv = 1e-9
let eps_zero = 1e-11

(* Recompute xb = B⁻¹b from scratch this often to shed accumulated
   product-form rounding drift. *)
let refresh_every = 128

type result =
  | R_optimal of {
      x : float array;
      objective : float;
      duals : float array;
      basis : int array;
    }
  | R_infeasible
  | R_unbounded

type stats = { pivots : int; row_nnz : float; cells : int }

(* Everything fixed by the rows. *)
type problem = {
  lp : Lp.t;
  n : int;
  m : int;
  ncols : int;
  first_artificial : int;
  n_artificial : int;
  cols : (int * float) array array; (* immutable sparse columns *)
  b : float array; (* normalized rhs, >= 0 *)
  init_basis : int array; (* slack / artificial start *)
  row_dual : (int * float) array; (* row -> (unit column, dual factor) *)
}

(* A working state: one basis and its inverse. *)
type state = {
  pb : problem;
  binv : Rows.row array; (* m x m basis inverse *)
  xb : float array; (* current basic values, B⁻¹ b *)
  basis : int array; (* row -> basic column *)
  in_basis : bool array; (* column -> basic? *)
  nz : int array; (* columns of the last B⁻¹ pivot row's nonzeros *)
  mutable nnz_sum : int; (* pivot-row nonzeros summed over all pivots *)
  mutable n_pivots : int;
  mutable cells : int; (* cell updates, see Simplex.mli *)
}

let budget_exceeded max_pivots =
  raise
    (Qp_util.Qp_error.Error
       (Internal
          (Printf.sprintf "Simplex: pivot budget exceeded (%d pivots)"
             max_pivots)))

(* Unchecked access to B⁻¹ rows for the inner loops: every index is
   below [m], the width of every row. A checked Bigarray access
   reloads the row's dimension on each cell. *)
let[@inline] ( .!{} ) (r : Rows.row) k = Bigarray.Array1.unsafe_get r k
let[@inline] ( .!{}<- ) (r : Rows.row) k v = Bigarray.Array1.unsafe_set r k v

(* w := B⁻¹ A_col for a sparse column. *)
let ftran st col w =
  let m = st.pb.m in
  Array.fill w 0 m 0.;
  let c = st.pb.cols.(col) in
  Array.iter
    (fun (k, a) ->
      for i = 0 to m - 1 do
        w.(i) <- w.(i) +. (st.binv.(i).!{k} *. a)
      done)
    c;
  st.cells <- st.cells + (m * (1 + Array.length c))

(* y := c_B^T B⁻¹, skipping rows whose basic cost is zero (most rows,
   in both phases). *)
let btran st cost y =
  let m = st.pb.m in
  Array.fill y 0 m 0.;
  let rows = ref 1 in
  for k = 0 to m - 1 do
    let cb = cost.(st.basis.(k)) in
    if cb <> 0. then begin
      incr rows;
      let bk = st.binv.(k) in
      for i = 0 to m - 1 do
        y.(i) <- y.(i) +. (cb *. bk.!{i})
      done
    end
  done;
  st.cells <- st.cells + (m * !rows)

let reduced_cost st cost y j =
  let r = ref cost.(j) in
  Array.iter (fun (i, a) -> r := !r -. (y.(i) *. a)) st.pb.cols.(j);
  !r

(* Product-form pivot: basis row [row] leaves, column [col] enters,
   with [w] = B⁻¹ A_col already computed. Updates binv, xb, basis.
   Like the dense tableau pivot, B⁻¹'s pivot row is scaled at its
   nonzeros only and the other rows are updated only in those columns:
   each skipped term is an exact [a -. f *. 0.]. *)
let apply_pivot st ~row ~col w =
  let m = st.pb.m in
  let p = w.(row) in
  let inv = 1. /. p in
  let brow = st.binv.(row) in
  let nz = st.nz in
  let nnz = ref 0 in
  for k = 0 to m - 1 do
    let v = brow.!{k} in
    if v <> 0. then begin
      brow.!{k} <- v *. inv;
      nz.(!nnz) <- k;
      incr nnz
    end
  done;
  let nnz = !nnz in
  st.nnz_sum <- st.nnz_sum + nnz;
  st.n_pivots <- st.n_pivots + 1;
  st.xb.(row) <- st.xb.(row) *. inv;
  let touched = ref 1 in
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = w.(i) in
      if Float.abs f > eps_zero then begin
        incr touched;
        let bi = st.binv.(i) in
        for q = 0 to nnz - 1 do
          let k = nz.(q) in
          bi.!{k} <- bi.!{k} -. (f *. brow.!{k})
        done;
        st.xb.(i) <- st.xb.(i) -. (f *. st.xb.(row));
        if st.xb.(i) < 0. && st.xb.(i) > -1e-11 then st.xb.(i) <- 0.
      end
    end
  done;
  st.cells <- st.cells + (!touched * nnz);
  st.in_basis.(st.basis.(row)) <- false;
  st.in_basis.(col) <- true;
  st.basis.(row) <- col

let refresh_xb st =
  let m = st.pb.m in
  for i = 0 to m - 1 do
    let bi = st.binv.(i) in
    let s = ref 0. in
    for k = 0 to m - 1 do
      s := !s +. (bi.!{k} *. st.pb.b.(k))
    done;
    st.xb.(i) <- (if !s < 0. && !s > -1e-11 then 0. else !s)
  done;
  st.cells <- st.cells + (m * m)

type phase_result = Phase_optimal | Phase_unbounded

(* One simplex phase: Dantzig pricing with a permanent switch to
   Bland's rule after a stall, same thresholds and ratio-test
   tie-break as the dense path. *)
let optimize st cost ~allowed ~max_pivots =
  let m = st.pb.m and ncols = st.pb.ncols in
  let y = Array.make m 0. in
  let w = Array.make m 0. in
  let pivots = ref 0 in
  let stall = ref 0 in
  let bland = ref false in
  let stall_limit = 20 * (m + ncols + 10) in
  let rec loop () =
    btran st cost y;
    st.cells <- st.cells + ncols;
    let enter = ref (-1) in
    if !bland then begin
      (try
         for j = 0 to ncols - 1 do
           if allowed j && not st.in_basis.(j) then
             if reduced_cost st cost y j < -.eps_rc then begin
               enter := j;
               raise Exit
             end
         done
       with Exit -> ())
    end
    else begin
      let best = ref (-.eps_rc) in
      for j = 0 to ncols - 1 do
        if allowed j && not st.in_basis.(j) then begin
          let r = reduced_cost st cost y j in
          if r < !best then begin
            best := r;
            enter := j
          end
        end
      done
    end;
    if !enter < 0 then Phase_optimal
    else begin
      let col = !enter in
      ftran st col w;
      let row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let wi = w.(i) in
        if wi > eps_piv then begin
          let ratio = st.xb.(i) /. wi in
          if
            ratio < !best_ratio -. 1e-12
            || (ratio < !best_ratio +. 1e-12
               && !row >= 0
               && st.basis.(i) < st.basis.(!row))
          then begin
            best_ratio := ratio;
            row := i
          end
        end
      done;
      if !row < 0 then Phase_unbounded
      else begin
        apply_pivot st ~row:!row ~col w;
        incr pivots;
        if !pivots > max_pivots then budget_exceeded max_pivots;
        Cancel.check_deadline ();
        if !pivots mod refresh_every = 0 then refresh_xb st;
        if !best_ratio <= 1e-12 then begin
          incr stall;
          if !stall > stall_limit then bland := true
        end
        else stall := 0;
        loop ()
      end
    end
  in
  let result = loop () in
  (result, !pivots)

(* ------------------------------------------------------------------ *)
(* Problem construction (mirrors the dense build exactly)              *)
(* ------------------------------------------------------------------ *)

let normalize rows =
  List.map
    (fun { Lp.terms; cmp; rhs } ->
      if rhs < 0. then
        let terms = List.map (fun (v, c) -> (v, -.c)) terms in
        let cmp = match cmp with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq in
        (terms, cmp, -.rhs, -1.)
      else (terms, cmp, rhs, 1.))
    rows

let problem lp =
  let n = Lp.n_vars lp in
  let rows = Lp.constraints lp in
  let m = List.length rows in
  let normalized = normalize rows in
  let n_slack =
    List.length (List.filter (fun (_, c, _, _) -> c <> Lp.Eq) normalized)
  in
  let n_artificial =
    List.length (List.filter (fun (_, c, _, _) -> c <> Lp.Le) normalized)
  in
  let ncols = n + n_slack + n_artificial in
  let first_artificial = n + n_slack in
  let cols_acc : (int * float) list array = Array.make ncols [] in
  let b = Array.make m 0. in
  let init_basis = Array.make m (-1) in
  let row_dual = Array.make m (0, 0.) in
  let slack_idx = ref n in
  let art_idx = ref first_artificial in
  List.iteri
    (fun i (terms, cmp, rhs, flip_factor) ->
      (* Duplicate variable mentions in a row are summed, as in the
         dense tableau build. *)
      let row_coeffs = Hashtbl.create (List.length terms) in
      List.iter
        (fun (v, c) ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt row_coeffs v) in
          Hashtbl.replace row_coeffs v (prev +. c))
        terms;
      let vars =
        List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) row_coeffs [])
      in
      List.iter
        (fun v -> cols_acc.(v) <- (i, Hashtbl.find row_coeffs v) :: cols_acc.(v))
        vars;
      b.(i) <- rhs;
      (match cmp with
      | Lp.Le ->
          cols_acc.(!slack_idx) <- [ (i, 1.) ];
          init_basis.(i) <- !slack_idx;
          row_dual.(i) <- (!slack_idx, -1. *. flip_factor);
          incr slack_idx
      | Lp.Ge ->
          cols_acc.(!slack_idx) <- [ (i, -1.) ];
          row_dual.(i) <- (!slack_idx, 1. *. flip_factor);
          incr slack_idx;
          cols_acc.(!art_idx) <- [ (i, 1.) ];
          init_basis.(i) <- !art_idx;
          incr art_idx
      | Lp.Eq ->
          cols_acc.(!art_idx) <- [ (i, 1.) ];
          init_basis.(i) <- !art_idx;
          row_dual.(i) <- (!art_idx, -1. *. flip_factor);
          incr art_idx))
    normalized;
  let cols = Array.map (fun l -> Array.of_list (List.rev l)) cols_acc in
  { lp; n; m; ncols; first_artificial; n_artificial; cols; b; init_basis; row_dual }

(* A state at the slack/artificial start: B = I. *)
let initial_state pb =
  let binv =
    Array.init pb.m (fun i ->
        let r = Rows.make pb.m in
        r.{i} <- 1.;
        r)
  in
  let in_basis = Array.make pb.ncols false in
  Array.iter (fun c -> in_basis.(c) <- true) pb.init_basis;
  {
    pb;
    binv;
    xb = Array.copy pb.b;
    basis = Array.copy pb.init_basis;
    in_basis;
    nz = Array.make pb.m 0;
    nnz_sum = 0;
    n_pivots = 0;
    cells = pb.m * pb.m;
  }

let stats st ~pivots =
  let row_nnz =
    if st.n_pivots = 0 then 0. else float_of_int st.nnz_sum /. float_of_int st.n_pivots
  in
  { pivots; row_nnz; cells = st.cells }

(* Crash the columns of a previous optimal basis into the fresh state:
   each warm column is pivoted in on the unclaimed row where B⁻¹A_c
   has the largest magnitude. Returns [Some crash_pivots] when the
   resulting start is primal-feasible (so phase 1 can be skipped). *)
let try_crash st (warm : int array) =
  let m = st.pb.m in
  let claimed = Array.make m false in
  let w = Array.make m 0. in
  let crash_pivots = ref 0 in
  Array.iter
    (fun c ->
      if c >= 0 && c < st.pb.first_artificial && c < st.pb.ncols then begin
        if st.in_basis.(c) then begin
          for i = 0 to m - 1 do
            if st.basis.(i) = c then claimed.(i) <- true
          done
        end
        else begin
          ftran st c w;
          let best = ref (-1) in
          let best_mag = ref 1e-7 in
          for i = 0 to m - 1 do
            if not claimed.(i) then begin
              let mag = Float.abs w.(i) in
              if mag > !best_mag then begin
                best := i;
                best_mag := mag
              end
            end
          done;
          if !best >= 0 then begin
            apply_pivot st ~row:!best ~col:c w;
            claimed.(!best) <- true;
            incr crash_pivots
          end
        end
      end)
    warm;
  let feasible = ref true in
  for i = 0 to m - 1 do
    if st.xb.(i) < -1e-7 then feasible := false
    else if st.basis.(i) >= st.pb.first_artificial && st.xb.(i) > 1e-7 then
      feasible := false
  done;
  if !feasible then begin
    for i = 0 to m - 1 do
      if st.xb.(i) < 0. then st.xb.(i) <- 0.
    done;
    Some !crash_pivots
  end
  else None

(* Drive residual zero-level artificials out of the basis where
   possible. A row r admitting no real pivot column has
   (B⁻¹A)_r,j = 0 for every j < first_artificial, so every future
   entering direction has w_r = 0 there: the row is inert (it encodes
   a redundant constraint) and the artificial stays parked at zero.
   Unlike the dense path there is no need to compact such rows away —
   B⁻¹ keeps its dimension. *)
let drive_out st =
  let pb = st.pb in
  let w = Array.make pb.m 0. in
  for r = 0 to pb.m - 1 do
    if st.basis.(r) >= pb.first_artificial then begin
      let brow = st.binv.(r) in
      let found = ref false in
      let j = ref 0 in
      while (not !found) && !j < pb.first_artificial do
        if not st.in_basis.(!j) then begin
          let dot = ref 0. in
          Array.iter (fun (i, a) -> dot := !dot +. (brow.!{i} *. a)) pb.cols.(!j);
          if Float.abs !dot > 1e-7 then begin
            ftran st !j w;
            apply_pivot st ~row:r ~col:!j w;
            found := true
          end
        end;
        incr j
      done;
      if not !found && st.xb.(r) < 0. then st.xb.(r) <- 0.
    end
  done

(* Phase 2 from a primal-feasible state with no artificial above zero. *)
let phase2 st ~objective ~max_pivots =
  let pb = st.pb in
  let cost2 = Array.make pb.ncols 0. in
  Array.blit objective 0 cost2 0 pb.n;
  let allowed j = j < pb.first_artificial in
  match optimize st cost2 ~allowed ~max_pivots with
  | Phase_unbounded, k -> (R_unbounded, k)
  | Phase_optimal, k ->
      let x = Array.make pb.n 0. in
      for i = 0 to pb.m - 1 do
        if st.basis.(i) < pb.n then x.(st.basis.(i)) <- st.xb.(i)
      done;
      Array.iteri (fun i xi -> if xi < 0. && xi > -1e-9 then x.(i) <- 0.) x;
      let objective = Lp.dot objective x in
      assert (Lp.is_feasible ~tol:1e-6 pb.lp x);
      let y = Array.make pb.m 0. in
      btran st cost2 y;
      let duals =
        Array.map (fun (col, factor) -> factor *. reduced_cost st cost2 y col) pb.row_dual
      in
      (R_optimal { x; objective; duals; basis = Array.copy st.basis }, k)

(* ------------------------------------------------------------------ *)
(* Shared phase 1                                                      *)
(* ------------------------------------------------------------------ *)

type prepared = {
  prob : problem;
  feasible : bool;
  binv0 : Rows.snapshot; (* B⁻¹ after phase 1 and drive-out *)
  xb0 : float array;
  basis0 : int array;
  work : state Rows.stash;
}

let prepare ~max_pivots pb =
  let st = initial_state pb in
  let pivots =
    if pb.n_artificial = 0 then 0
    else begin
      let cost1 = Array.make pb.ncols 0. in
      for j = pb.first_artificial to pb.ncols - 1 do
        cost1.(j) <- 1.
      done;
      match optimize st cost1 ~allowed:(fun _ -> true) ~max_pivots with
      | Phase_unbounded, _ -> assert false (* bounded below by 0 *)
      | Phase_optimal, k -> k
    end
  in
  let phase1_value = ref 0. in
  for i = 0 to pb.m - 1 do
    if st.basis.(i) >= pb.first_artificial then phase1_value := !phase1_value +. st.xb.(i)
  done;
  let feasible = pb.n_artificial = 0 || !phase1_value <= 1e-7 in
  if feasible then drive_out st;
  let p =
    {
      prob = pb;
      feasible;
      binv0 = Rows.snapshot st.binv ~n_rows:pb.m ~ncols:pb.m;
      xb0 = Array.copy st.xb;
      basis0 = Array.copy st.basis;
      work = Rows.stash ();
    }
  in
  let s = stats st ~pivots in
  st.nnz_sum <- 0;
  st.n_pivots <- 0;
  st.cells <- 0;
  Rows.give p.work st;
  (p, s)

let solve_prepared ~max_pivots p ~objective =
  if not p.feasible then (R_infeasible, { pivots = 0; row_nnz = 0.; cells = 0 })
  else begin
    let st = match Rows.take p.work with Some st -> st | None -> initial_state p.prob in
    Rows.restore p.binv0 st.binv;
    Array.blit p.xb0 0 st.xb 0 p.prob.m;
    Array.blit p.basis0 0 st.basis 0 p.prob.m;
    Array.fill st.in_basis 0 p.prob.ncols false;
    Array.iter (fun c -> st.in_basis.(c) <- true) st.basis;
    st.nnz_sum <- 0;
    st.n_pivots <- 0;
    st.cells <- p.prob.m * p.prob.m;
    let r, k = phase2 st ~objective ~max_pivots in
    let s = stats st ~pivots:k in
    Rows.give p.work st;
    (r, s)
  end

let solve_crashed ~max_pivots ~warm pb ~objective =
  let st = initial_state pb in
  match try_crash st warm with
  | None -> None
  | Some crash_pivots ->
      drive_out st;
      let r, k = phase2 st ~objective ~max_pivots in
      Some (r, stats st ~pivots:(crash_pivots + k))
