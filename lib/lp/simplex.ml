module Obs = Qp_obs

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

(* Deadline machinery lives in [Cancel] so the dense and revised pivot
   loops share one domain-local deadline; re-exported here because
   front ends address the solver as [Simplex]. *)
let set_deadline = Cancel.set_deadline
let get_deadline = Cancel.get_deadline
let check_deadline = Cancel.check_deadline

(* ------------------------------------------------------------------ *)
(* Path selection                                                      *)
(* ------------------------------------------------------------------ *)

type path = Dense | Revised

(* The dense tableau allocates m x ncols cells; a pivot touches only
   the rows with a nonzero in the entering column, and in each of them
   only the pivot row's nonzero columns (on the n=12 grid:3 LPs, 134
   of 525 rows and 103 of 741 columns on average). Past this many
   cells (64 MB of floats) the revised path's sparse columns + m x m
   basis inverse win on memory. Every LP the default experiments emit
   at seed sizes sits well below the threshold, keeping their pivot
   sequences — and therefore solver output bytes — on the historical
   dense path. *)
let revised_min_cells = 8_000_000

let forced_path : path option Atomic.t = Atomic.make None
let set_forced_path p = Atomic.set forced_path p
let last_path_v : path Atomic.t = Atomic.make Dense
let last_path () = Atomic.get last_path_v

let choose_path ~m ~ncols =
  match Atomic.get forced_path with
  | Some p -> p
  | None -> if m * ncols > revised_min_cells then Revised else Dense

let eps_rc = 1e-9 (* reduced-cost optimality tolerance *)
let eps_piv = 1e-9 (* minimum pivot magnitude *)
let eps_zero = 1e-11

(* Mutable tableau kept in canonical form: basis columns are unit
   vectors, [b] is non-negative, [basis.(i)] names the basic variable
   of row i. Rows live off-heap (see [Rows]); [a] may hold more rows
   than the active prefix [m]. *)
type tableau = {
  mutable m : int; (* active rows *)
  ncols : int;
  a : Rows.row array; (* m x ncols *)
  b : float array;
  basis : int array;
  nz : int array; (* columns of the last pivot row's nonzeros *)
  mutable nnz : int; (* live prefix of [nz] *)
  mutable nnz_sum : int; (* pivot-row nonzeros summed over all pivots *)
  mutable n_pivots : int;
  mutable cells : int; (* cell updates, see simplex.mli *)
}

let new_tableau ~rows ~ncols =
  {
    m = rows;
    ncols;
    a = Array.init rows (fun _ -> Rows.make ncols);
    b = Array.make rows 0.;
    basis = Array.make rows (-1);
    nz = Array.make ncols 0;
    nnz = 0;
    nnz_sum = 0;
    n_pivots = 0;
    cells = 0;
  }

(* Unchecked row access for the inner loops: every index is a column
   below [ncols], the width of every row. A checked Bigarray access
   reloads the row's dimension on each cell. *)
let[@inline] ( .!{} ) (r : Rows.row) j = Bigarray.Array1.unsafe_get r j
let[@inline] ( .!{}<- ) (r : Rows.row) j v = Bigarray.Array1.unsafe_set r j v

(* The pivot row is scaled at its nonzeros only, and their columns are
   recorded in [t.nz]; every other row (and, in
   [update_reduced_costs], the reduced-cost row) then changes only in
   those columns. Each skipped update is an exact [a -. f *. 0.], so
   the pivot sequence and every nonzero bit match a full-row rewrite;
   only the sign of a zero cell may differ. A pivot costs rows touched
   x pivot-row nonzeros instead of m x ncols. *)
let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.{col} in
  let inv = 1. /. p in
  let nz = t.nz in
  let k = ref 0 in
  for j = 0 to t.ncols - 1 do
    let v = arow.!{j} in
    if v <> 0. then begin
      arow.!{j} <- v *. inv;
      nz.(!k) <- j;
      incr k
    end
  done;
  let nnz = !k in
  t.nnz <- nnz;
  t.nnz_sum <- t.nnz_sum + nnz;
  t.n_pivots <- t.n_pivots + 1;
  arow.{col} <- 1.;
  t.b.(row) <- t.b.(row) *. inv;
  let touched = ref 1 in
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let ai = t.a.(i) in
      let f = ai.!{col} in
      if Float.abs f > eps_zero then begin
        incr touched;
        for q = 0 to nnz - 1 do
          let j = nz.(q) in
          ai.!{j} <- ai.!{j} -. (f *. arow.!{j})
        done;
        ai.{col} <- 0.;
        t.b.(i) <- t.b.(i) -. (f *. t.b.(row));
        if t.b.(i) < 0. && t.b.(i) > -1e-11 then t.b.(i) <- 0.
      end
    end
  done;
  t.cells <- t.cells + (!touched * nnz);
  t.basis.(row) <- col

(* Reduced costs r_j = c_j - sum_i c_B(i) * T(i,j), and the objective
   value of the current basic solution, computed from scratch. *)
let reduced_costs t cost =
  let r = Array.copy cost in
  let z = ref 0. in
  let rows = ref 1 in
  for i = 0 to t.m - 1 do
    let cb = cost.(t.basis.(i)) in
    if cb <> 0. then begin
      incr rows;
      z := !z +. (cb *. t.b.(i));
      let ai = t.a.(i) in
      for j = 0 to t.ncols - 1 do
        r.(j) <- r.(j) -. (cb *. ai.!{j})
      done
    end
  done;
  t.cells <- t.cells + (!rows * t.ncols);
  (r, !z)

(* Update the reduced-cost row after a pivot on (row, col): r gets
   r_col * (pivot row) subtracted, over the pivot row's nonzeros. Call
   right AFTER the tableau pivot, while [t.nz] still describes it. *)
let update_reduced_costs t r ~row ~col =
  let f = r.(col) in
  if Float.abs f > eps_zero then begin
    let arow = t.a.(row) in
    for q = 0 to t.nnz - 1 do
      let j = t.nz.(q) in
      r.(j) <- r.(j) -. (f *. arow.!{j})
    done;
    r.(col) <- 0.;
    t.cells <- t.cells + t.nnz
  end

type phase_result = Phase_optimal | Phase_unbounded

(* Run simplex iterations on the current tableau with the given cost
   vector until optimal or unbounded, returning the outcome and the
   number of pivots performed. [allowed col] gates the entering
   variable (used to keep artificials out in phase 2). Dantzig pricing
   with a permanent switch to Bland's rule after [stall_limit]
   consecutive non-improving pivots. *)
let optimize t cost ~allowed ~max_pivots =
  let r, _ = reduced_costs t cost in
  let pivots = ref 0 in
  let stall = ref 0 in
  let bland = ref false in
  let stall_limit = 20 * (t.m + t.ncols + 10) in
  let rec loop () =
    (* Entering column selection. *)
    let enter = ref (-1) in
    if !bland then begin
      (try
         for j = 0 to t.ncols - 1 do
           if allowed j && r.(j) < -.eps_rc then begin
             enter := j;
             raise Exit
           end
         done
       with Exit -> ())
    end
    else begin
      let best = ref (-.eps_rc) in
      for j = 0 to t.ncols - 1 do
        if allowed j && r.(j) < !best then begin
          best := r.(j);
          enter := j
        end
      done
    end;
    if !enter < 0 then Phase_optimal
    else begin
      let col = !enter in
      (* Ratio test; Bland tie-break on basis variable index. *)
      let row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let aij = t.a.(i).!{col} in
        if aij > eps_piv then begin
          let ratio = t.b.(i) /. aij in
          if
            ratio < !best_ratio -. 1e-12
            || (ratio < !best_ratio +. 1e-12
               && !row >= 0
               && t.basis.(i) < t.basis.(!row))
          then begin
            best_ratio := ratio;
            row := i
          end
        end
      done;
      if !row < 0 then Phase_unbounded
      else begin
        pivot t ~row:!row ~col;
        update_reduced_costs t r ~row:!row ~col;
        incr pivots;
        if !pivots > max_pivots then
          raise
            (Qp_util.Qp_error.Error
               (Internal
                  (Printf.sprintf "Simplex: pivot budget exceeded (%d pivots)"
                     max_pivots)));
        check_deadline ();
        (* Degenerate pivots (zero ratio) do not improve the objective;
           a long streak of them triggers the switch to Bland's rule,
           which guarantees termination. *)
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

type certified = {
  x : float array;
  objective : float;
  duals : float array;
}

type certified_outcome = Certified of certified | C_infeasible | C_unbounded

type basis = int array

(* Crash the columns of a previous optimal basis into the fresh
   tableau: each warm column is pivoted in on the unclaimed row where
   it has the largest magnitude. If the resulting basic solution is
   primal-feasible (b >= -1e-7, no artificial carrying weight), phase 1
   can be skipped entirely. Mutates [t]. Returns [Some crash_pivots] on
   success. *)
let try_crash_basis t ~first_artificial (warm : basis) =
  let claimed = Array.make t.m false in
  let crash_pivots = ref 0 in
  Array.iter
    (fun c ->
      if c >= 0 && c < first_artificial && c < t.ncols then begin
        let basic_row = ref (-1) in
        for i = 0 to t.m - 1 do
          if t.basis.(i) = c then basic_row := i
        done;
        if !basic_row >= 0 then claimed.(!basic_row) <- true
        else begin
          let best = ref (-1) in
          let best_mag = ref 1e-7 in
          for i = 0 to t.m - 1 do
            if not claimed.(i) then begin
              let mag = Float.abs t.a.(i).{c} in
              if mag > !best_mag then begin
                best := i;
                best_mag := mag
              end
            end
          done;
          if !best >= 0 then begin
            pivot t ~row:!best ~col:c;
            claimed.(!best) <- true;
            incr crash_pivots
          end
        end
      end)
    warm;
  let feasible = ref true in
  for i = 0 to t.m - 1 do
    if t.b.(i) < -1e-7 then feasible := false
    else if t.basis.(i) >= first_artificial && t.b.(i) > 1e-7 then
      feasible := false
  done;
  if !feasible then begin
    for i = 0 to t.m - 1 do
      if t.b.(i) < 0. then t.b.(i) <- 0.
    done;
    Some !crash_pivots
  end
  else None

(* ------------------------------------------------------------------ *)
(* The dense path: rows, phase 1 once, phase 2 per objective           *)
(* ------------------------------------------------------------------ *)

(* Everything fixed by the rows. Per original row, [row_dual] names
   the unit column (slack / surplus / artificial) whose phase-2
   reduced cost encodes the row's dual multiplier, and the factor
   mapping it back to the original (pre-normalization) orientation: a
   slack/artificial column e_i gives r = -y_i (factor -1); a surplus
   column -e_i gives r = +y_i (factor +1); a row negated during
   normalization flips the factor. *)
type layout = {
  lp : Lp.t;
  n : int;
  m : int;
  ncols : int;
  first_artificial : int;
  n_artificial : int;
  normalized : ((int * float) list * Lp.cmp * float * float) list;
  row_dual : (int * float) array;
}

let layout lp =
  let n = Lp.n_vars lp in
  let normalized = Revised.normalize (Lp.constraints lp) in
  let m = List.length normalized in
  let n_slack =
    List.length (List.filter (fun (_, c, _, _) -> c <> Lp.Eq) normalized)
  in
  let n_artificial =
    List.length (List.filter (fun (_, c, _, _) -> c <> Lp.Le) normalized)
  in
  let first_artificial = n + n_slack in
  let row_dual = Array.make m (0, 0.) in
  let slack_idx = ref n and art_idx = ref first_artificial in
  List.iteri
    (fun i (_, cmp, _, flip_factor) ->
      match cmp with
      | Lp.Le ->
          row_dual.(i) <- (!slack_idx, -1. *. flip_factor);
          incr slack_idx
      | Lp.Ge ->
          row_dual.(i) <- (!slack_idx, 1. *. flip_factor);
          incr slack_idx;
          incr art_idx
      | Lp.Eq ->
          row_dual.(i) <- (!art_idx, -1. *. flip_factor);
          incr art_idx)
    normalized;
  { lp; n; m; ncols = first_artificial + n_artificial; first_artificial;
    n_artificial; normalized; row_dual }

(* Write the slack/artificial starting tableau into a fresh
   (zero-filled) tableau of [m] rows. *)
let fill_initial ly (t : tableau) =
  let slack_idx = ref ly.n in
  let art_idx = ref ly.first_artificial in
  List.iteri
    (fun i (terms, cmp, rhs, _) ->
      let ai = t.a.(i) in
      List.iter (fun (v, c) -> ai.{v} <- ai.{v} +. c) terms;
      t.b.(i) <- rhs;
      match cmp with
      | Lp.Le ->
          ai.{!slack_idx} <- 1.;
          t.basis.(i) <- !slack_idx;
          incr slack_idx
      | Lp.Ge ->
          ai.{!slack_idx} <- -1.;
          incr slack_idx;
          ai.{!art_idx} <- 1.;
          t.basis.(i) <- !art_idx;
          incr art_idx
      | Lp.Eq ->
          ai.{!art_idx} <- 1.;
          t.basis.(i) <- !art_idx;
          incr art_idx)
    ly.normalized;
  t.cells <- t.cells + (ly.m * ly.ncols)

(* Drive any residual artificial out of the basis; rows where that is
   impossible are redundant and are dropped (swapped past the active
   prefix, so every row buffer stays distinct). *)
let drive_out_and_compact ly (t : tableau) =
  let keep = Array.make t.m true in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= ly.first_artificial then begin
      let found = ref false in
      let j = ref 0 in
      while (not !found) && !j < ly.first_artificial do
        if Float.abs t.a.(i).{!j} > 1e-7 then begin
          pivot t ~row:i ~col:!j;
          found := true
        end;
        incr j
      done;
      if not !found then keep.(i) <- false
    end
  done;
  let dst = ref 0 in
  for i = 0 to t.m - 1 do
    if keep.(i) then begin
      if !dst <> i then begin
        let row = t.a.(!dst) in
        t.a.(!dst) <- t.a.(i);
        t.a.(i) <- row;
        t.b.(!dst) <- t.b.(i);
        t.basis.(!dst) <- t.basis.(i)
      end;
      incr dst
    end
  done;
  t.m <- !dst

let phase2 ly (t : tableau) ~objective ~max_pivots =
  let cost2 = Array.make ly.ncols 0. in
  Array.blit objective 0 cost2 0 ly.n;
  let allowed j = j < ly.first_artificial in
  match optimize t cost2 ~allowed ~max_pivots with
  | Phase_unbounded, k -> ((C_unbounded, None), k)
  | Phase_optimal, k ->
      let x = Array.make ly.n 0. in
      for i = 0 to t.m - 1 do
        if t.basis.(i) < ly.n then x.(t.basis.(i)) <- t.b.(i)
      done;
      (* Clean tiny negatives from roundoff. *)
      Array.iteri (fun i xi -> if xi < 0. && xi > -1e-9 then x.(i) <- 0.) x;
      let objective = Lp.dot objective x in
      assert (Lp.is_feasible ~tol:1e-6 ly.lp x);
      let r, _ = reduced_costs t cost2 in
      let duals = Array.map (fun (col, factor) -> factor *. r.(col)) ly.row_dual in
      ((Certified { x; objective; duals }, Some (Array.sub t.basis 0 t.m)), k)

let stats (t : tableau) ~pivots =
  let row_nnz =
    if t.n_pivots = 0 then 0. else float_of_int t.nnz_sum /. float_of_int t.n_pivots
  in
  { Revised.pivots; row_nnz; cells = t.cells }

(* Phase 1 once: the tableau after phase 1, drive-out and compaction,
   frozen as a snapshot. The tableau that ran phase 1 becomes the
   first working tableau of the stash. *)
type dense_prepared = {
  ly : layout;
  feasible : bool;
  rows0 : Rows.snapshot;
  b0 : float array;
  basis0 : int array;
  work : tableau Rows.stash;
}

let dense_prepare ly ~max_pivots =
  let t = new_tableau ~rows:ly.m ~ncols:ly.ncols in
  fill_initial ly t;
  let pivots =
    if ly.n_artificial = 0 then 0
    else begin
      let cost1 = Array.make ly.ncols 0. in
      for j = ly.first_artificial to ly.ncols - 1 do
        cost1.(j) <- 1.
      done;
      match optimize t cost1 ~allowed:(fun _ -> true) ~max_pivots with
      | Phase_unbounded, _ -> assert false (* phase-1 objective bounded below by 0 *)
      | Phase_optimal, k -> k
    end
  in
  let phase1_value = ref 0. in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= ly.first_artificial then phase1_value := !phase1_value +. t.b.(i)
  done;
  let feasible = ly.n_artificial = 0 || !phase1_value <= 1e-7 in
  if feasible then drive_out_and_compact ly t;
  let p =
    {
      ly;
      feasible;
      rows0 = Rows.snapshot t.a ~n_rows:t.m ~ncols:ly.ncols;
      b0 = Array.sub t.b 0 t.m;
      basis0 = Array.sub t.basis 0 t.m;
      work = Rows.stash ();
    }
  in
  let s = stats t ~pivots in
  Rows.give p.work t;
  (p, s)

let dense_solve_prepared p ~objective ~max_pivots =
  if not p.feasible then ((C_infeasible, None), { Revised.pivots = 0; row_nnz = 0.; cells = 0 })
  else begin
    let rows = Array.length p.b0 in
    let t =
      match Rows.take p.work with
      | Some t -> t
      | None -> new_tableau ~rows ~ncols:p.ly.ncols
    in
    Rows.restore p.rows0 t.a;
    t.m <- rows;
    Array.blit p.b0 0 t.b 0 rows;
    Array.blit p.basis0 0 t.basis 0 rows;
    t.nnz_sum <- 0;
    t.n_pivots <- 0;
    t.cells <- rows * p.ly.ncols;
    let result, k = phase2 p.ly t ~objective ~max_pivots in
    let s = stats t ~pivots:k in
    Rows.give p.work t;
    (result, s)
  end

let dense_solve_crashed ly ~warm ~objective ~max_pivots =
  let t = new_tableau ~rows:ly.m ~ncols:ly.ncols in
  fill_initial ly t;
  match try_crash_basis t ~first_artificial:ly.first_artificial warm with
  | None -> None
  | Some crash_pivots ->
      drive_out_and_compact ly t;
      let result, k = phase2 ly t ~objective ~max_pivots in
      Some (result, stats t ~pivots:(crash_pivots + k))

(* ------------------------------------------------------------------ *)
(* Path-independent front                                              *)
(* ------------------------------------------------------------------ *)

type body = Dense_p of dense_prepared | Revised_p of Revised.prepared

type prepared = {
  p_path : path;
  p_rows : int;
  p_vars : int;
  body : body;
}

let counter name help = Obs.Metrics.counter ~help (Obs.Metrics.current ()) name

(* Per-span accounting: pivots and cell updates into the counters,
   pivots and pivot-row density onto the open [simplex] span. *)
let account { Revised.pivots; row_nnz; cells } =
  Obs.Metrics.add
    (counter "qp_simplex_pivots_total" "Simplex pivots across both phases")
    (float_of_int pivots);
  Obs.Metrics.add
    (counter "qp_simplex_cell_updates_total"
       "Simplex tableau/basis-inverse cells written, see Simplex.mli")
    (float_of_int cells);
  Obs.Span.add_attr "pivots" (Obs.Json.Int pivots);
  Obs.Span.add_attr "row_nnz" (Obs.Json.Float row_nnz)

let path_name = function Dense -> "dense" | Revised -> "revised"

let default_max_pivots ~rows ~vars = 50_000 + (50 * (rows + vars))

let simplex_span ~phase ?(extra = []) ~rows ~vars path f =
  Obs.Span.with_ "simplex"
    ~attrs:
      ([ ("phase", Obs.Json.Int phase); ("vars", Obs.Json.Int vars); ("rows", Obs.Json.Int rows);
         ("path", Obs.Json.String (path_name path)) ]
      @ extra)
    f

let prepare ?max_pivots ?(shared_by = 1) lp =
  check_deadline ();
  let rows = Lp.n_constraints lp and vars = Lp.n_vars lp in
  let max_pivots =
    match max_pivots with Some v -> v | None -> default_max_pivots ~rows ~vars
  in
  let ly = layout lp in
  let path = choose_path ~m:ly.m ~ncols:ly.ncols in
  Atomic.set last_path_v path;
  simplex_span ~phase:1 ~extra:[ ("shared_by", Obs.Json.Int shared_by) ] ~rows ~vars path
  @@ fun () ->
  let body, s =
    match path with
    | Dense ->
        let p, s = dense_prepare ly ~max_pivots in
        (Dense_p p, s)
    | Revised ->
        let p, s = Revised.prepare ~max_pivots (Revised.problem lp) in
        (Revised_p p, s)
  in
  account s;
  { p_path = path; p_rows = rows; p_vars = vars; body }

let of_revised (r, s) =
  let out =
    match r with
    | Revised.R_infeasible -> (C_infeasible, None)
    | Revised.R_unbounded -> (C_unbounded, None)
    | Revised.R_optimal { x; objective; duals; basis } ->
        (Certified { x; objective; duals }, Some basis)
  in
  (out, s)

let warm_attempts () = counter "qp_simplex_warm_attempts_total" "Simplex warm-start attempts"

let warm_used () =
  counter "qp_simplex_warm_used_total" "Simplex solves where the crash basis skipped phase 1"

(* One candidate LP: the phase-2 span, counted as one solve. *)
let solve_span ~rows ~vars path f =
  Obs.Metrics.inc (counter "qp_simplex_solves_total" "Two-phase simplex invocations");
  ignore (warm_attempts ());
  ignore (warm_used ());
  simplex_span ~phase:2 ~rows ~vars path (fun () ->
      let out, stats = f () in
      account stats;
      out)

let phase2_prepared p ~objective ~max_pivots =
  match p.body with
  | Dense_p d -> dense_solve_prepared d ~objective ~max_pivots
  | Revised_p r -> of_revised (Revised.solve_prepared ~max_pivots r ~objective)

let solve_prepared ?max_pivots p ~objective =
  check_deadline ();
  if Array.length objective <> p.p_vars then
    invalid_arg "Simplex.solve_prepared: objective length <> number of variables";
  let max_pivots =
    match max_pivots with
    | Some v -> v
    | None -> default_max_pivots ~rows:p.p_rows ~vars:p.p_vars
  in
  Atomic.set last_path_v p.p_path;
  solve_span ~rows:p.p_rows ~vars:p.p_vars p.p_path @@ fun () ->
  phase2_prepared p ~objective ~max_pivots

(* A warm start crashes the stored basis into a fresh starting
   tableau; only when that start is infeasible does the solve pay for
   its own phase 1 (prepared inside this span) and run phase 2 from
   the prepared state. *)
let solve_warm_certified ?max_pivots ?warm lp =
  match warm with
  | None | Some [||] ->
      let p = prepare ?max_pivots lp in
      solve_prepared ?max_pivots p ~objective:(Lp.objective lp)
  | Some wb ->
      check_deadline ();
      let rows = Lp.n_constraints lp and vars = Lp.n_vars lp in
      let max_pivots =
        match max_pivots with Some v -> v | None -> default_max_pivots ~rows ~vars
      in
      let objective = Lp.objective lp in
      let ly = layout lp in
      let path = choose_path ~m:ly.m ~ncols:ly.ncols in
      Atomic.set last_path_v path;
      solve_span ~rows ~vars path @@ fun () ->
      Obs.Metrics.inc (warm_attempts ());
      let crashed =
        match path with
        | Dense -> dense_solve_crashed ly ~warm:wb ~objective ~max_pivots
        | Revised ->
            Option.map of_revised
              (Revised.solve_crashed ~max_pivots ~warm:wb (Revised.problem lp) ~objective)
      in
      match crashed with
      | Some r ->
          Obs.Metrics.inc (warm_used ());
          r
      | None -> phase2_prepared (prepare ~max_pivots lp) ~objective ~max_pivots

let solve_certified ?max_pivots lp = fst (solve_warm_certified ?max_pivots lp)

let solve ?max_pivots lp =
  match solve_certified ?max_pivots lp with
  | C_infeasible -> Infeasible
  | C_unbounded -> Unbounded
  | Certified { x; objective; _ } -> Optimal { x; objective }

let solve_warm ?max_pivots ?warm lp =
  match solve_warm_certified ?max_pivots ?warm lp with
  | C_infeasible, _ -> (Infeasible, None)
  | C_unbounded, _ -> (Unbounded, None)
  | Certified { x; objective; _ }, basis -> (Optimal { x; objective }, basis)

let check_certificate ?(tol = 1e-6) lp (c : certified) =
  let rows = Lp.constraints lp in
  let duals = c.duals in
  List.length rows = Array.length duals
  && Lp.is_feasible ~tol lp c.x
  && begin
       (* Sign conditions and strong duality. *)
       let signs_ok =
         List.for_all2
           (fun { Lp.cmp; _ } y ->
             match cmp with
             | Lp.Le -> y <= tol
             | Lp.Ge -> y >= -.tol
             | Lp.Eq -> true)
           rows
           (Array.to_list duals)
       in
       let dual_obj =
         List.fold_left2
           (fun acc { Lp.rhs; _ } y -> acc +. (y *. rhs))
           0. rows (Array.to_list duals)
       in
       let scale = Float.max 1. (Float.abs c.objective) in
       let strong = Float.abs (dual_obj -. c.objective) <= tol *. scale in
       (* Dual feasibility: c_j - sum_i y_i a_ij >= 0 for every
          structural variable j. *)
       let n = Lp.n_vars lp in
       let reduced = Lp.objective lp in
       List.iteri
         (fun i { Lp.terms; _ } ->
           List.iter (fun (v, coef) -> reduced.(v) <- reduced.(v) -. (duals.(i) *. coef)) terms)
         rows;
       let dual_feasible = ref true in
       for j = 0 to n - 1 do
         if reduced.(j) < -.tol then dual_feasible := false
       done;
       signs_ok && strong && !dual_feasible
     end
