(* Benchmark-side spans around the calls into each layer.  Kept in memory
   and written out when the run ends; a span's self time is its duration
   minus the time its child spans cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root span (one operation) *)
  name : string;
  t0 : int;
  mutable t1 : int;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; parent; name; t0 = now_ns (); t1 = 0 } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* Summed self time in ms per span name. *)
let self_ms () =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          ((try Hashtbl.find covered s.parent with Not_found -> 0) + (s.t1 - s.t0)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 - s.t0 - (try Hashtbl.find covered s.id with Not_found -> 0) in
      Hashtbl.replace acc s.name ((try Hashtbl.find acc s.name with Not_found -> 0.) +. (float_of_int self /. 1e6)))
    !spans;
  fun name -> try Hashtbl.find acc name with Not_found -> 0.

(* Durations in ms of every span called [name]. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (float_of_int (s.t1 - s.t0) /. 1e6) else None) !spans

(* Chrome trace-event document: one complete ("X") event per span. *)
let write path =
  let base = List.fold_left (fun m s -> min m s.t0) max_int !spans in
  let ev s =
    Obs.Json.Obj
      [ ("name", Obs.Json.Str s.name);
        ("ph", Obs.Json.Str "X");
        ("ts", Obs.Json.Float (float_of_int (s.t0 - base) /. 1e3));
        ("dur", Obs.Json.Float (float_of_int (s.t1 - s.t0) /. 1e3));
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 1);
        ("args", Obs.Json.Obj [ ("id", Obs.Json.Int s.id); ("parent", Obs.Json.Int s.parent) ])
      ]
  in
  Obs.Json.to_file path (Obs.Json.Obj [ ("traceEvents", Obs.Json.List (List.rev_map ev !spans)) ])
