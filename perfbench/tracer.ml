(* Spans of the traced run. Each operation runs with an in-memory
   Qp_obs trace sink installed, so the benchmark's own Qp_obs spans
   around its calls into the program and the spans the program emits
   itself (simplex, lp_solve, candidate, filtering, rounding, relay,
   access_sim_run, ...) are both recorded, with name, start, end,
   parent and attributes; every span of one operation carries the
   operation's id. Spans stay in memory until [write]. With tracing
   off no sink is installed, so [record] and every span are plain
   calls. *)

module Json = Qp_obs.Json

type span = {
  op : int;
  id : int; (* unique within [op] *)
  parent : int; (* 0 = a root of [op] *)
  name : string;
  start : float;
  stop : float;
  attrs : (string * Json.t) list;
}

let enabled = ref false
let spans : span list ref = ref []
let last_op = ref 0

let next_op () =
  incr last_op;
  !last_op

let of_record op j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  match (Json.member "type" j, Json.member "id" j, num "t_start", num "t_end") with
  | Some (Json.String "span"), Some (Json.Int id), Some start, Some stop ->
      Some
        { op; id; start; stop;
          parent = (match Json.member "parent" j with Some (Json.Int p) -> p | _ -> 0);
          name = Option.value (Option.bind (Json.member "name" j) Json.to_str) ~default:"";
          attrs = (match Json.member "attrs" j with Some (Json.Obj a) -> a | _ -> []) }
  | _ -> None

(* Run [f] as part of operation [op], under a root span [name]. The
   same [op] may be recorded more than once (an operation and its
   probes). *)
let record ~op name f =
  if not !enabled then f ()
  else begin
    let sink, records = Qp_obs.Trace.memory () in
    Qp_obs.Trace.install sink;
    let collect () =
      Qp_obs.Trace.uninstall ();
      (* Span ids restart at every install: offset them so they stay
         unique within the operation. *)
      let base = List.fold_left (fun a s -> if s.op = op then max a s.id else a) 0 !spans in
      List.iter
        (fun r ->
          Option.iter
            (fun s ->
              spans :=
                { s with id = s.id + base; parent = (if s.parent = 0 then 0 else s.parent + base) }
                :: !spans)
            (of_record op r))
        (records ())
    in
    Fun.protect ~finally:collect (fun () -> Qp_obs.Span.with_ name f)
  end

(* The root span of an operation timed elsewhere and already closed
   (serve requests, timed by the generator's threads): [start]/[stop]
   are wall-clock seconds. *)
let add ~op name ~start ~stop =
  if !enabled then spans := { op; id = 1; parent = 0; name; start; stop; attrs = [] } :: !spans

let duration s = s.stop -. s.start
let named name = List.filter (fun s -> s.name = name) !spans

(* Total (inclusive) time of the spans named [name]. *)
let total name = List.fold_left (fun a s -> a +. duration s) 0. (named name)

(* Self time per span name: each span's duration minus the part its
   direct children cover. Children of one span run one after another
   on its domain, so their durations add without overlap. *)
let self_times () =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time (s.op, s.parent)
          ((try Hashtbl.find child_time (s.op, s.parent) with Not_found -> 0.) +. duration s))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered = try Hashtbl.find child_time (s.op, s.id) with Not_found -> 0. in
      Hashtbl.replace self s.name
        ((try Hashtbl.find self s.name with Not_found -> 0.)
        +. Float.max 0. (duration s -. covered)))
    !spans;
  fun name -> try Hashtbl.find self name with Not_found -> 0.

let attr_float s k = Option.bind (List.assoc_opt k s.attrs) Json.to_float
let attr_string s k = Option.bind (List.assoc_opt k s.attrs) Json.to_str

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("op", Json.Int s.op); ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                ("name", Json.String s.name); ("start", Json.Float s.start);
                ("end", Json.Float s.stop); ("attrs", Json.Obj s.attrs) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc
