(* In-memory span recorder for the traced run.

   A span is one call the benchmark made into a layer: its name, start,
   end, the span that caused it, and the id of the query (or append) it
   served.  Spans are kept in memory and written out when the run ends;
   nothing is recorded while tracing is off, so the untraced runs that
   produce the end-to-end numbers pay one branch per call.

   Spans are either measured around a call ({!with_span}, wall time on
   the monotonic clock) or placed explicitly on a timeline ({!add}) —
   the serving replay runs on a virtual timeline where a query's queue
   wait and its share of a batch are intervals, not calls. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  query : int;
  start : float;
  stop : float;
}

let enabled = ref false

let recorded : span list ref = ref []

let next_id = ref 0

(* Open measured spans, innermost first. *)
let stack : int list ref = ref []

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with id :: _ -> id | [] -> -1

(* Record a span with explicit bounds; returns its id. *)
let add ?(parent = -1) ~query ~start ~stop name =
  let id = fresh () in
  recorded := { id; name; parent; query; start; stop } :: !recorded;
  id

(* Run [f] inside a measured span nested under the innermost open one. *)
let with_span name ~query f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = current () in
    stack := id :: !stack;
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      stack := List.tl !stack;
      recorded := { id; name; parent; query; start; stop } :: !recorded
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part of its interval
   that its children cover (overlapping children are merged, and a child
   is clipped to its parent's bounds). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun (a, b) -> (Float.max a s.start, Float.min b s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

(* Total self time per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and totals = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt totals s.name with
      | Some (t, n) -> Hashtbl.replace totals s.name (t +. self, n + 1)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace totals s.name (self, 1))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

(* Chrome trace-event JSON ("X" complete events, microseconds), written
   one event at a time. *)
let write_chrome path spans =
  let module J = Subql_obs.Json in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", J.Float (1e6 *. (s.start -. t0)));
        ("dur", J.Float (1e6 *. duration s));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("query", J.Int s.query) ]);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc (J.to_string (event s)))
        spans;
      output_string oc "]}\n")
