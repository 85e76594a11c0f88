(* Byte-identity oracle for the [lp] solver.

   Each case pins, for one fixed instance, what the Theorem 1.2 route
   returns: the placement, the exact bits of the objective, the
   certified lower bound and the winning source's LP optimum Z*, and
   the exact number of simplex pivots across every candidate LP. The
   placements and bits were recorded from the dense kernel that
   rewrote every tableau cell on every pivot. A kernel that skips only
   exact [a -. f *. 0.] terms must reproduce them bit for bit; any
   change to the pivot sequence or to a single rounding step fails
   here. The pivot counts were re-recorded when the sources of one
   instance (uniform capacities, so identical rows) began to share one
   phase 1: each count is one phase 1 plus every source's phase 2
   (e.g. n=12 seed 1: 4077 -> 502), with every other field unchanged. *)

module Qp_error = Qp_util.Qp_error
module Spec = Qp_instance.Spec
module Metrics = Qp_obs.Metrics
module Simplex = Qp_lp.Simplex
open Qp_place

type pinned = {
  placement : int array;
  objective : int64;
  lower_bound : int64;
  z_star : int64;
  pivots : int;
}

let solve ~system ~nodes ~cap_slack ~seed ~path =
  let p =
    match Spec.build { Spec.default with Spec.topology = "waxman"; nodes; system; cap_slack; seed } with
    | Ok p -> p
    | Error e -> Alcotest.fail ("instance: " ^ Qp_error.to_string e)
  in
  let reg = Metrics.create ~enabled:true () in
  let outcome =
    Simplex.set_forced_path path;
    Fun.protect ~finally:(fun () -> Simplex.set_forced_path None) @@ fun () ->
    Metrics.with_current reg (fun () ->
        (Solver.find_exn "lp").Solver.solve Solver.default_params p)
  in
  match outcome with
  | Error e -> Alcotest.fail ("lp solve: " ^ Qp_error.to_string e)
  | Ok o ->
      let bits = Int64.bits_of_float in
      let required what = function
        | Some v -> v
        | None -> Alcotest.failf "lp outcome has no %s" what
      in
      {
        placement = o.Outcome.placement;
        objective = bits o.Outcome.objective;
        lower_bound = bits (required "lower_bound" o.Outcome.lower_bound);
        z_star = bits (required "z_star" (Outcome.detail o "z_star"));
        pivots =
          int_of_float
            (Metrics.counter_value (Metrics.counter reg "qp_simplex_pivots_total"));
      }

(* grid:3 has 9 elements, so 8 nodes need capacity slack above 9/8. *)
let slack nodes = if nodes < 9 then 1.3 else 1.0

(* (system, nodes, seed, forced simplex path, pinned result). *)
let fixture =
  [
    ( "grid:3", 8, 1, None,
      { placement = [| 0; 2; 5; 2; 5; 0; 2; 5; 0 |];
        objective = 0x3fd8d273f2bfab06L;
        lower_bound = 0x3fbbc830baade61bL;
        z_star = 0x3fcfb2ffbf24e5cbL;
        pivots = 315 } );
    ( "grid:3", 8, 2, None,
      { placement = [| 0; 1; 3; 1; 3; 0; 1; 3; 0 |];
        objective = 0x3fdc8f626e596bf7L;
        lower_bound = 0x3fbf3fe291e1623dL;
        z_star = 0x3fd253b6da7792d0L;
        pivots = 315 } );
    ( "grid:3", 8, 3, None,
      { placement = [| 0; 2; 3; 2; 3; 0; 2; 3; 0 |];
        objective = 0x3fe46a8229a6e29fL;
        lower_bound = 0x3fc6b4fd93908e37L;
        z_star = 0x3fdafce77f31b17cL;
        pivots = 317 } );
    ( "grid:3", 12, 1, None,
      { placement = [| 5; 6; 2; 0; 5; 6; 2; 0; 8 |];
        objective = 0x3fe105979f93380eL;
        lower_bound = 0x3fc04cd082b685c5L;
        z_star = 0x3fd16224cd3ddb50L;
        pivots = 502 } );
    ( "grid:3", 12, 2, None,
      { placement = [| 5; 2; 8; 11; 5; 2; 8; 11; 9 |];
        objective = 0x3fdca1c86daf71fdL;
        lower_bound = 0x3fbca349a0c85c76L;
        z_star = 0x3fcff10f1af63807L;
        pivots = 507 } );
    ( "grid:3", 12, 3, None,
      { placement = [| 0; 2; 9; 3; 0; 2; 9; 3; 4 |];
        objective = 0x3fe5aeddffe0f860L;
        lower_bound = 0x3fc530df388bcf78L;
        z_star = 0x3fd8556644b3d606L;
        pivots = 499 } );
    ( "grid:3", 16, 1, None,
      { placement = [| 13; 0; 2; 15; 13; 0; 2; 15; 8 |];
        objective = 0x3fe127f0a9dbb224L;
        lower_bound = 0x3fbe5be02304b00dL;
        z_star = 0x3fc78b781fadfc2aL;
        pivots = 616 } );
    ( "grid:3", 16, 2, None,
      { placement = [| 2; 11; 5; 8; 2; 11; 5; 8; 9 |];
        objective = 0x3fe069fd634953afL;
        lower_bound = 0x3fbd8deec7a3b150L;
        z_star = 0x3fc7c421b4e60a25L;
        pivots = 601 } );
    ( "grid:3", 16, 3, None,
      { placement = [| 5; 15; 7; 14; 5; 15; 7; 14; 12 |];
        objective = 0x3fe50c71bf644032L;
        lower_bound = 0x3fc4a0ae8f70d448L;
        z_star = 0x3fce676aa1dc97feL;
        pivots = 598 } );
    ( "majority:5:3", 10, 1, None,
      { placement = [| 0; 8; 0; 8; 2 |];
        objective = 0x3fd7ad0f6c0e7cf3L;
        lower_bound = 0x3fb511ad9df804b5L;
        z_star = 0x3fc0ae565fd421e7L;
        pivots = 334 } );
    ( "grid:3", 8, 1, Some Simplex.Revised,
      { placement = [| 0; 2; 5; 2; 5; 0; 2; 5; 0 |];
        objective = 0x3fd8d273f2bfab06L;
        lower_bound = 0x3fbbc830baade61bL;
        z_star = 0x3fcfb2ffbf24e5cbL;
        pivots = 356 } );
  ]

let check_case (system, nodes, seed, path, expect) () =
  let got = solve ~system ~nodes ~cap_slack:(slack nodes) ~seed ~path in
  let hex = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%016Lx" v) Int64.equal in
  Alcotest.(check (array int)) "placement" expect.placement got.placement;
  Alcotest.check hex "objective bits" expect.objective got.objective;
  Alcotest.check hex "lower_bound bits" expect.lower_bound got.lower_bound;
  Alcotest.check hex "z_star bits" expect.z_star got.z_star;
  Alcotest.(check int) "simplex pivots" expect.pivots got.pivots

let case_name (system, nodes, seed, path, _) =
  Printf.sprintf "waxman %s n=%d seed=%d%s" system nodes seed
    (match path with Some Simplex.Revised -> " revised" | Some Simplex.Dense -> " dense" | None -> "")

let suites =
  [
    ( "lp.oracle",
      List.map (fun c -> Alcotest.test_case (case_name c) `Quick (check_case c)) fixture );
  ]
