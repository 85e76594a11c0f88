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
   of row i. *)
type tableau = {
  mutable m : int; (* active rows *)
  ncols : int;
  a : float array array; (* m x ncols *)
  b : float array;
  basis : int array;
  nz : int array; (* columns of the last pivot row's nonzeros *)
  mutable nnz : int; (* live prefix of [nz] *)
  mutable nnz_sum : int; (* pivot-row nonzeros summed over all pivots *)
  mutable n_pivots : int;
}

(* The pivot row is scaled at its nonzeros only, and their columns are
   recorded in [t.nz]; every other row (and, in
   [update_reduced_costs], the reduced-cost row) then changes only in
   those columns. Each skipped update is an exact [a -. f *. 0.], so
   the pivot sequence and every nonzero bit match a full-row rewrite;
   only the sign of a zero cell may differ. A pivot costs rows touched
   x pivot-row nonzeros instead of m x ncols. *)
let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  let inv = 1. /. p in
  let nz = t.nz in
  let k = ref 0 in
  for j = 0 to t.ncols - 1 do
    let v = arow.(j) in
    if v <> 0. then begin
      arow.(j) <- v *. inv;
      nz.(!k) <- j;
      incr k
    end
  done;
  let nnz = !k in
  t.nnz <- nnz;
  t.nnz_sum <- t.nnz_sum + nnz;
  t.n_pivots <- t.n_pivots + 1;
  arow.(col) <- 1.;
  t.b.(row) <- t.b.(row) *. inv;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if Float.abs f > eps_zero then begin
        let ai = t.a.(i) in
        for q = 0 to nnz - 1 do
          let j = nz.(q) in
          ai.(j) <- ai.(j) -. (f *. arow.(j))
        done;
        ai.(col) <- 0.;
        t.b.(i) <- t.b.(i) -. (f *. t.b.(row));
        if t.b.(i) < 0. && t.b.(i) > -1e-11 then t.b.(i) <- 0.
      end
    end
  done;
  t.basis.(row) <- col

(* Reduced costs r_j = c_j - sum_i c_B(i) * T(i,j), and the objective
   value of the current basic solution, computed from scratch. *)
let reduced_costs t cost =
  let r = Array.copy cost in
  let z = ref 0. in
  for i = 0 to t.m - 1 do
    let cb = cost.(t.basis.(i)) in
    if cb <> 0. then begin
      z := !z +. (cb *. t.b.(i));
      let ai = t.a.(i) in
      for j = 0 to t.ncols - 1 do
        r.(j) <- r.(j) -. (cb *. ai.(j))
      done
    end
  done;
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
      r.(j) <- r.(j) -. (f *. arow.(j))
    done;
    r.(col) <- 0.
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
        let aij = t.a.(i).(col) in
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
   can be skipped entirely. Mutates [t]; on failure the caller must
   rebuild the tableau. Returns [Some crash_pivots] on success. *)
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
              let mag = Float.abs t.a.(i).(c) in
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

(* Internal driver shared by [solve], [solve_certified] and
   [solve_warm]. Tracks, per original row, the unit column (slack /
   surplus / artificial) whose phase-2 reduced cost encodes the row's
   dual multiplier, and the sign mapping back to the original
   (pre-normalization) orientation. Returns the outcome plus, on
   optimality, the final basis for warm-starting a nearby LP. *)
let solve_internal ?max_pivots ?warm lp =
  check_deadline ();
  let n = Lp.n_vars lp in
  let rows = Lp.constraints lp in
  let m = List.length rows in
  let solves_c =
    Obs.Metrics.counter ~help:"Two-phase simplex invocations" (Obs.Metrics.current ())
      "qp_simplex_solves_total"
  in
  let pivots_c =
    Obs.Metrics.counter ~help:"Simplex pivots across both phases" (Obs.Metrics.current ())
      "qp_simplex_pivots_total"
  in
  let warm_attempts_c =
    Obs.Metrics.counter ~help:"Simplex warm-start attempts" (Obs.Metrics.current ())
      "qp_simplex_warm_attempts_total"
  in
  let warm_used_c =
    Obs.Metrics.counter
      ~help:"Simplex solves where the crash basis skipped phase 1"
      (Obs.Metrics.current ()) "qp_simplex_warm_used_total"
  in
  Obs.Metrics.inc solves_c;
  let total_pivots = ref 0 in
  let count_pivots k = total_pivots := !total_pivots + k in
  Obs.Span.with_ "simplex"
    ~attrs:[ ("vars", Obs.Json.Int n); ("rows", Obs.Json.Int m) ]
  @@ fun () ->
  let finish_with ~row_nnz outcome =
    Obs.Metrics.add pivots_c (float_of_int !total_pivots);
    Obs.Span.add_attr "pivots" (Obs.Json.Int !total_pivots);
    Obs.Span.add_attr "row_nnz" (Obs.Json.Float row_nnz);
    outcome
  in
  let max_pivots =
    match max_pivots with Some v -> v | None -> 50_000 + (50 * (m + n))
  in
  (* Normalize rows to non-negative rhs and count extra columns. *)
  let normalized = Revised.normalize rows in
  let n_slack =
    List.length (List.filter (fun (_, c, _, _) -> c <> Lp.Eq) normalized)
  in
  let n_artificial =
    List.length (List.filter (fun (_, c, _, _) -> c <> Lp.Le) normalized)
  in
  let ncols = n + n_slack + n_artificial in
  let path = choose_path ~m ~ncols in
  Atomic.set last_path_v path;
  Obs.Span.add_attr "path"
    (Obs.Json.String (match path with Dense -> "dense" | Revised -> "revised"));
  match path with
  | Revised -> (
      let result, pivots, warm_used, row_nnz = Revised.solve ?warm ~max_pivots lp in
      (match warm with
      | Some wb when Array.length wb > 0 ->
          Obs.Metrics.inc warm_attempts_c;
          if warm_used then Obs.Metrics.inc warm_used_c
      | _ -> ());
      count_pivots pivots;
      let finish = finish_with ~row_nnz in
      match result with
      | Revised.R_infeasible -> (finish C_infeasible, None)
      | Revised.R_unbounded -> (finish C_unbounded, None)
      | Revised.R_optimal { x; objective; duals; basis } ->
          (finish (Certified { x; objective; duals }), Some basis))
  | Dense ->
  let first_artificial = n + n_slack in
  (* Tableau construction is a function because a failed warm-start
     crash leaves the tableau mutated and the cold path needs a fresh
     one. *)
  let build () =
    let a = Array.init m (fun _ -> Array.make ncols 0.) in
    let b = Array.make m 0. in
    let basis = Array.make m (-1) in
    let slack_idx = ref n in
    let art_idx = ref first_artificial in
    (* (unit column, factor): original dual = factor * reduced_cost(col)
       under the phase-2 objective. A slack/artificial column e_i gives
       r = -y_i (factor -1); a surplus column -e_i gives r = +y_i
       (factor +1). A row negated during normalization flips the
       factor. *)
    let row_dual = Array.make m (0, 0.) in
    List.iteri
      (fun i (terms, cmp, rhs, flip_factor) ->
        List.iter (fun (v, c) -> a.(i).(v) <- a.(i).(v) +. c) terms;
        b.(i) <- rhs;
        (match cmp with
        | Lp.Le ->
            a.(i).(!slack_idx) <- 1.;
            basis.(i) <- !slack_idx;
            row_dual.(i) <- (!slack_idx, -1. *. flip_factor);
            incr slack_idx
        | Lp.Ge ->
            a.(i).(!slack_idx) <- -1.;
            row_dual.(i) <- (!slack_idx, 1. *. flip_factor);
            incr slack_idx;
            a.(i).(!art_idx) <- 1.;
            basis.(i) <- !art_idx;
            incr art_idx
        | Lp.Eq ->
            a.(i).(!art_idx) <- 1.;
            basis.(i) <- !art_idx;
            row_dual.(i) <- (!art_idx, -1. *. flip_factor);
            incr art_idx))
      normalized;
    ( { m; ncols; a; b; basis; nz = Array.make ncols 0; nnz = 0; nnz_sum = 0; n_pivots = 0 },
      row_dual )
  in
  let t0, row_dual0 = build () in
  let t, row_dual, warm_ok =
    match warm with
    | Some wb when Array.length wb > 0 ->
        Obs.Metrics.inc warm_attempts_c;
        (match try_crash_basis t0 ~first_artificial wb with
        | Some crash_pivots ->
            Obs.Metrics.inc warm_used_c;
            count_pivots crash_pivots;
            (t0, row_dual0, true)
        | None ->
            let t1, row_dual1 = build () in
            (t1, row_dual1, false))
    | _ -> (t0, row_dual0, false)
  in
  let finish outcome =
    let row_nnz =
      if t.n_pivots = 0 then 0. else float_of_int t.nnz_sum /. float_of_int t.n_pivots
    in
    finish_with ~row_nnz outcome
  in
  (* Phase 1: minimize the sum of artificials. Skipped when the crash
     basis already reached a primal-feasible start. *)
  (if n_artificial > 0 && not warm_ok then begin
     let cost1 = Array.make ncols 0. in
     for j = first_artificial to ncols - 1 do
       cost1.(j) <- 1.
     done;
     match optimize t cost1 ~allowed:(fun _ -> true) ~max_pivots with
     | Phase_unbounded, _ -> assert false (* phase-1 objective bounded below by 0 *)
     | Phase_optimal, k -> count_pivots k
   end);
  let phase1_value =
    let v = ref 0. in
    for i = 0 to t.m - 1 do
      if t.basis.(i) >= first_artificial then v := !v +. t.b.(i)
    done;
    !v
  in
  if n_artificial > 0 && (not warm_ok) && phase1_value > 1e-7 then
    (finish C_infeasible, None)
  else begin
    (* Drive any residual artificial out of the basis; rows where that
       is impossible are redundant and are dropped. *)
    let keep = Array.make t.m true in
    for i = 0 to t.m - 1 do
      if t.basis.(i) >= first_artificial then begin
        let found = ref false in
        let j = ref 0 in
        while (not !found) && !j < first_artificial do
          if Float.abs t.a.(i).(!j) > 1e-7 then begin
            pivot t ~row:i ~col:!j;
            found := true
          end;
          incr j
        done;
        if not !found then keep.(i) <- false
      end
    done;
    (* Compact dropped rows. *)
    let dst = ref 0 in
    for i = 0 to t.m - 1 do
      if keep.(i) then begin
        if !dst <> i then begin
          t.a.(!dst) <- t.a.(i);
          t.b.(!dst) <- t.b.(i);
          t.basis.(!dst) <- t.basis.(i)
        end;
        incr dst
      end
    done;
    t.m <- !dst;
    (* Phase 2. *)
    let cost2 = Array.make ncols 0. in
    let obj = Lp.objective lp in
    Array.blit obj 0 cost2 0 n;
    let allowed j = j < first_artificial in
    match optimize t cost2 ~allowed ~max_pivots with
    | Phase_unbounded, k ->
        count_pivots k;
        (finish C_unbounded, None)
    | Phase_optimal, k ->
        count_pivots k;
        let x = Array.make n 0. in
        for i = 0 to t.m - 1 do
          if t.basis.(i) < n then x.(t.basis.(i)) <- t.b.(i)
        done;
        (* Clean tiny negatives from roundoff. *)
        Array.iteri (fun i xi -> if xi < 0. && xi > -1e-9 then x.(i) <- 0.) x;
        let objective = Lp.objective_value lp x in
        assert (Lp.is_feasible ~tol:1e-6 lp x);
        let r, _ = reduced_costs t cost2 in
        let duals = Array.map (fun (col, factor) -> factor *. r.(col)) row_dual in
        (finish (Certified { x; objective; duals }), Some (Array.sub t.basis 0 t.m))
  end

let solve ?max_pivots lp =
  match fst (solve_internal ?max_pivots lp) with
  | C_infeasible -> Infeasible
  | C_unbounded -> Unbounded
  | Certified { x; objective; _ } -> Optimal { x; objective }

let solve_certified ?max_pivots lp = fst (solve_internal ?max_pivots lp)

let solve_warm ?max_pivots ?warm lp =
  match solve_internal ?max_pivots ?warm lp with
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
