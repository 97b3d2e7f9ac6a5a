type span = {
  name : string;
  attrs : (string * string) list;
  start_us : float;
  dur_us : float;
  children : span list;
}

(* An open span under construction: extra attributes and completed
   children arrive in reverse order. *)
type frame = {
  f_name : string;
  mutable f_attrs : (string * string) list;  (* reversed *)
  f_start_us : float;
  mutable f_children : span list;  (* reversed *)
}

(* All span state is domain-local (one independent trace machine per
   domain), so exchange workers can open spans on their own domains
   without racing the coordinator.  Workers hand their completed spans
   back through {!drain_local}; the coordinator attaches them under its
   open span with {!absorb}. *)
type state = {
  mutable on : bool;
  mutable stack : frame list;
  mutable finished : span list;  (* reversed *)
}

let state_key =
  Domain.DLS.new_key (fun () -> { on = false; stack = []; finished = [] })

let state () = Domain.DLS.get state_key

let set_enabled b = (state ()).on <- b

let enabled () = (state ()).on

let now_us = Clock.now_us

let push_completed st span =
  match st.stack with
  | parent :: _ -> parent.f_children <- span :: parent.f_children
  | [] -> st.finished <- span :: st.finished

let with_ ?(attrs = []) name f =
  let st = state () in
  if not st.on then f ()
  else begin
    let frame =
      { f_name = name; f_attrs = List.rev attrs; f_start_us = now_us (); f_children = [] }
    in
    st.stack <- frame :: st.stack;
    Fun.protect
      ~finally:(fun () ->
        (match st.stack with top :: rest when top == frame -> st.stack <- rest | _ -> ());
        push_completed st
          {
            name = frame.f_name;
            attrs = List.rev frame.f_attrs;
            start_us = frame.f_start_us;
            dur_us = now_us () -. frame.f_start_us;
            children = List.rev frame.f_children;
          })
      f
  end

let add_attr key value =
  let st = state () in
  if st.on then
    match st.stack with
    | frame :: _ -> frame.f_attrs <- (key, value) :: frame.f_attrs
    | [] -> ()

let roots () = List.rev (state ()).finished

let clear () = (state ()).finished <- []

let drain_local () =
  let st = state () in
  let spans = List.rev st.finished in
  st.finished <- [];
  spans

let absorb spans =
  let st = state () in
  List.iter (push_completed st) spans

let to_chrome_json () =
  let events = ref [] in
  let rec emit span =
    events :=
      Json.Obj
        [
          ("name", Json.Str span.name);
          ("cat", Json.Str "subql");
          ("ph", Json.Str "X");
          ("ts", Json.Float span.start_us);
          ("dur", Json.Float span.dur_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) span.attrs));
        ]
      :: !events;
    List.iter emit span.children
  in
  List.iter emit (roots ());
  Json.to_string (Json.List (List.rev !events))

let export path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))
