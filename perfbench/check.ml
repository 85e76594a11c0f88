(* Output checks that do not trust the solver's own accounting.

   The objective is recomputed by a second algorithm: for each client,
   visit the occupied nodes in order of distance and note the distance
   at which each quorum becomes fully covered (the quorum-formation
   scheme of AWARE's formQV, SNIPPETS.md §1). That distance is the
   client's max-delay to the quorum, so no per-quorum max is taken. *)

module Problem = Qp_place.Problem
module Outcome = Qp_place.Outcome
module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum

let client_max_delay (p : Problem.qpp) elem_quorums (placement : int array) v =
  let hosts =
    Array.of_list (List.sort_uniq compare (Array.to_list placement))
  in
  let d h = Metric.dist p.Problem.metric v h in
  Array.sort
    (fun a b -> match compare (d a) (d b) with 0 -> compare a b | c -> c)
    hosts;
  let nq = Quorum.n_quorums p.Problem.system in
  let missing = Array.init nq (Quorum.quorum_size p.Problem.system) in
  let covered_at = Array.make nq nan in
  Array.iter
    (fun h ->
      let dh = d h in
      Array.iteri
        (fun u host ->
          if host = h then
            List.iter
              (fun q ->
                missing.(q) <- missing.(q) - 1;
                if missing.(q) = 0 then covered_at.(q) <- dh)
              elem_quorums.(u))
        placement)
    hosts;
  let acc = ref 0. in
  Array.iteri (fun q pq -> acc := !acc +. (pq *. covered_at.(q))) p.Problem.strategy;
  !acc

let elem_quorums (p : Problem.qpp) =
  Array.init (Quorum.universe p.Problem.system) (Quorum.element_quorums p.Problem.system)

let avg_max_delay (p : Problem.qpp) placement =
  let eq = elem_quorums p in
  let n = Problem.n_nodes p in
  match p.Problem.client_rates with
  | None ->
      let acc = ref 0. in
      for v = 0 to n - 1 do
        acc := !acc +. client_max_delay p eq placement v
      done;
      !acc /. float_of_int n
  | Some rates ->
      let acc = ref 0. and total = ref 0. in
      Array.iteri
        (fun v r ->
          total := !total +. r;
          if r > 0. then acc := !acc +. (r *. client_max_delay p eq placement v))
        rates;
      !acc /. !total

(* Largest load/capacity ratio over the nodes, from the strategy's
   element loads. *)
let load_ratio (p : Problem.qpp) placement =
  let loads = Qp_quorum.Strategy.loads p.Problem.system p.Problem.strategy in
  let node = Array.make (Problem.n_nodes p) 0. in
  Array.iteri (fun u v -> node.(v) <- node.(v) +. loads.(u)) placement;
  let worst = ref 0. in
  Array.iteri
    (fun v l ->
      let c = p.Problem.capacities.(v) in
      let r = if c > 0. then l /. c else if l > 0. then infinity else 0. in
      if r > !worst then worst := r)
    node;
  !worst

(* Every check on one outcome; returns the failures found. [lp] adds
   the Theorem 3.7 checks that need the LP's own diagnostics. *)
let outcome ?(lp = false) (p : Problem.qpp) (o : Outcome.t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let pl = o.Outcome.placement in
  if
    Array.length pl <> Quorum.universe p.Problem.system
    || Array.exists (fun v -> v < 0 || v >= Problem.n_nodes p) pl
  then err "%s: placement not total" o.Outcome.solver
  else begin
    (match o.Outcome.load_bound with
    | Some b ->
        let r = load_ratio p pl in
        if r > b *. (1. +. 1e-9) then
          err "%s: load ratio %.6f above bound %.6f" o.Outcome.solver r b
    | None -> ());
    let recomputed = avg_max_delay p pl in
    if not (Common.rel_close recomputed o.Outcome.avg_max_delay) then
      err "%s: objective %.17g, recomputed %.17g" o.Outcome.solver
        o.Outcome.avg_max_delay recomputed;
    if lp then begin
      (match o.Outcome.lower_bound with
      | Some lb when lb > o.Outcome.avg_max_delay *. (1. +. 1e-9) ->
          err "lp: lower bound %.17g above objective %.17g" lb
            o.Outcome.avg_max_delay
      | Some _ -> ()
      | None -> err "lp: no lower bound with every candidate");
      match
        ( Outcome.detail o "v0",
          Outcome.detail o "z_star",
          Outcome.detail o "alpha" )
      with
      | Some v0, Some z, Some a ->
          let v0 = int_of_float v0 in
          let d = client_max_delay p (elem_quorums p) pl v0 in
          let bound = a /. (a -. 1.) *. z in
          if d > bound *. (1. +. 1e-9) +. 1e-12 then
            err "lp: delta_f(v0)=%.17g above a/(a-1) Z*=%.17g" d bound
      | _ -> err "lp: outcome lacks v0/z_star/alpha"
    end
  end;
  List.rev !errs
