module Simplex = Qp_lp.Simplex
module Obs = Qp_obs

type t = {
  alpha : float;
  max_pivots : int option;
  candidates : int list option;
  bases : (int, Simplex.basis) Hashtbl.t;
  mutable solves : int;
}

let create ?(alpha = 2.) ?max_pivots ?candidates () =
  if alpha <= 1. then invalid_arg "Resolve.create: alpha > 1 required";
  { alpha; max_pivots; candidates; bases = Hashtbl.create 16; solves = 0 }

let warm_sources t = Hashtbl.length t.bases
let solves t = t.solves
let reset t = Hashtbl.reset t.bases

let solve t (p : Problem.qpp) =
  t.solves <- t.solves + 1;
  (* A crash costs about as many pivots as the phase 1 it skips, so a
     stored basis only pays for a source whose phase 1 is not shared;
     a source with a shared phase 1 runs phase 2 from it. *)
  let round ~v0 ~prepared s =
    let warm = if Option.is_none prepared then Hashtbl.find_opt t.bases v0 else None in
    Rounding.solve_warm ~alpha:t.alpha ?max_pivots:t.max_pivots ?warm ?prepared s
  in
  let result, bases =
    Qpp_solver.solve_with ~alpha:t.alpha ?max_pivots:t.max_pivots ?candidates:t.candidates
      ~round p
  in
  (* The pool merged worker results in candidate order; commit the new
     bases sequentially so the store stays single-writer. A candidate
     that turned infeasible keeps no stale basis. *)
  (match t.candidates with
  | None ->
      Hashtbl.reset t.bases;
      List.iter (fun (v0, b) -> Hashtbl.replace t.bases v0 b) bases
  | Some cs ->
      List.iter (fun v0 -> Hashtbl.remove t.bases v0) cs;
      List.iter (fun (v0, b) -> Hashtbl.replace t.bases v0 b) bases);
  Obs.Span.with_ "resolve"
    ~attrs:
      [ ("solves", Obs.Json.Int t.solves);
        ("warm_sources", Obs.Json.Int (Hashtbl.length t.bases)) ]
    (fun () -> result)
