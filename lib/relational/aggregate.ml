type func =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t
  | First of Expr.t

type spec = { func : func; name : string }

let count_star name = { func = Count_star; name }

let count e name = { func = Count e; name }

let sum e name = { func = Sum e; name }

let min_ e name = { func = Min e; name }

let max_ e name = { func = Max e; name }

let avg e name = { func = Avg e; name }

let first e name = { func = First e; name }

let arg = function
  | Count_star -> None
  | Count e | Sum e | Min e | Max e | Avg e | First e -> Some e

let map_arg f = function
  | Count_star -> Count_star
  | Count e -> Count (f e)
  | Sum e -> Sum (f e)
  | Min e -> Min (f e)
  | Max e -> Max (f e)
  | Avg e -> Avg (f e)
  | First e -> First (f e)

let output_ty frames spec =
  match spec.func with
  | Count_star | Count _ -> Value.Tint
  | Avg _ -> Value.Tfloat
  | Sum e | Min e | Max e | First e -> (
    match Expr.infer frames e with
    | Some ty -> ty
    | None -> Value.Tint (* aggregating a NULL literal; any type will do *))

let equal_func a b =
  match a, b with
  | Count_star, Count_star -> true
  | Count x, Count y | Sum x, Sum y | Min x, Min y | Max x, Max y | Avg x, Avg y | First x, First y
    ->
    Expr.equal x y
  | (Count_star | Count _ | Sum _ | Min _ | Max _ | Avg _ | First _), _ -> false

(* FIRST keeps the earliest non-NULL value, so which of two partial
   states came first decides the merge; every other state is a
   commutative combination. *)
let order_sensitive = function
  | First _ -> true
  | Count_star | Count _ | Sum _ | Min _ | Max _ | Avg _ -> false

let retractable = function
  | Min _ | Max _ | First _ -> false
  | Count_star | Count _ | Sum _ | Avg _ -> true

let func_to_string = function
  | Count_star -> "count(*)"
  | Count e -> Printf.sprintf "count(%s)" (Expr.to_string e)
  | Sum e -> Printf.sprintf "sum(%s)" (Expr.to_string e)
  | Min e -> Printf.sprintf "min(%s)" (Expr.to_string e)
  | Max e -> Printf.sprintf "max(%s)" (Expr.to_string e)
  | Avg e -> Printf.sprintf "avg(%s)" (Expr.to_string e)
  | First e -> Printf.sprintf "first(%s)" (Expr.to_string e)

let pp_spec ppf spec = Format.fprintf ppf "%s -> %s" (func_to_string spec.func) spec.name

type compiled = { func : func; eval : Tuple.t array -> Value.t }

let compile frames (spec : spec) =
  let eval =
    match arg spec.func with
    | Some e -> Expr.compile_frames frames e
    | None -> fun _ -> Value.Int 1 (* COUNT( * ): every row counts *)
  in
  { func = spec.func; eval }

(* ------------------------------------------------------------------ *)
(* The slot-addressed store                                             *)
(* ------------------------------------------------------------------ *)

(* One column of state per aggregate: [counts.(s)] is the rows seen
   (COUNT( * )) or non-NULL values seen (every other kind) by slot [s];
   [values.(s)] is its running sum / min / max / first value, and AVG
   keeps its running sum unboxed in [sums.(s)] instead.  COUNT and
   COUNT( * ) keep neither. *)
type column = {
  c : compiled;
  mutable counts : int array;
  mutable values : Value.t array;
  mutable sums : float array;
}

type states = { cols : column array; mutable slots : int; mutable capacity : int }

let sized capacity col =
  let fit a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 (min capacity (Array.length a));
    b
  in
  col.counts <- fit col.counts 0;
  (* AVG's sum starts at [0.0] and adds every value to it, so an AVG over
     [-0.] is [0.]; the other kinds start empty. *)
  (match col.c.func with
  | Avg _ -> col.sums <- fit col.sums 0.0
  | Sum _ | Min _ | Max _ | First _ -> col.values <- fit col.values Value.Null
  | Count_star | Count _ -> ());
  col

let states compiled ~slots =
  {
    cols =
      Array.map (fun c -> sized slots { c; counts = [||]; values = [||]; sums = [||] }) compiled;
    slots;
    capacity = slots;
  }

let width t = Array.length t.cols

let add_slot t =
  if t.slots = t.capacity then begin
    t.capacity <- max 16 (2 * t.capacity);
    Array.iter (fun col -> ignore (sized t.capacity col)) t.cols
  end;
  t.slots <- t.slots + 1;
  t.slots - 1

let to_float = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | v -> Value.type_error "avg over non-numeric value %s" (Value.to_string v)

(* Fold one non-NULL value [v] into slot [s] of [col], [n] values in —
   or, merging, another partition's running value (not for AVG, whose
   sums [merge] adds directly). *)
let fold_value col s n v =
  let values = col.values in
  match col.c.func with
  | Count_star | Count _ -> ()
  | Sum _ -> values.(s) <- (if n = 0 then v else Value.add values.(s) v)
  | Min _ -> if n = 0 || Value.compare v values.(s) < 0 then values.(s) <- v
  | Max _ -> if n = 0 || Value.compare v values.(s) > 0 then values.(s) <- v
  | Avg _ -> col.sums.(s) <- col.sums.(s) +. to_float v
  | First _ -> if n = 0 then values.(s) <- v

let step t s ctx =
  let cols = t.cols in
  for a = 0 to Array.length cols - 1 do
    let col = cols.(a) in
    let counts = col.counts in
    match col.c.func with
    | Count_star -> counts.(s) <- counts.(s) + 1
    | Count _ | Sum _ | Min _ | Max _ | Avg _ | First _ ->
      let v = col.c.eval ctx in
      if not (Value.is_null v) then begin
        let n = counts.(s) in
        fold_value col s n v;
        counts.(s) <- n + 1
      end
  done

let retract t s ctx =
  Array.iter
    (fun col ->
      if not (retractable col.c.func) then
        invalid_arg ("Aggregate.retract: " ^ func_to_string col.c.func ^ " cannot be retracted"))
    t.cols;
  Array.iter
    (fun col ->
      let v = col.c.eval ctx and values = col.values in
      if not (Value.is_null v) then begin
        (match col.c.func with
        | Sum _ -> values.(s) <- Value.sub values.(s) v
        | Avg _ -> col.sums.(s) <- col.sums.(s) -. to_float v
        | Count_star | Count _ | Min _ | Max _ | First _ -> ());
        col.counts.(s) <- col.counts.(s) - 1
      end)
    t.cols

(* Slot by slot, [into] taken as the earlier partition: a FIRST already
   set stays (see [order_sensitive]). *)
let merge ~into other =
  if
    into.slots <> other.slots
    || Array.length into.cols <> Array.length other.cols
    || not (Array.for_all2 (fun a b -> equal_func a.c.func b.c.func) into.cols other.cols)
  then invalid_arg "Aggregate.merge: states of different aggregates or slot counts";
  Array.iter2
    (fun dst src ->
      for s = 0 to into.slots - 1 do
        let m = src.counts.(s) in
        if m > 0 then begin
          let n = dst.counts.(s) in
          (match dst.c.func with
          | Avg _ -> dst.sums.(s) <- dst.sums.(s) +. src.sums.(s)
          | Sum _ | Min _ | Max _ | First _ -> fold_value dst s n src.values.(s)
          | Count_star | Count _ -> ());
          dst.counts.(s) <- n + m
        end
      done)
    into.cols other.cols

let write t s out off =
  Array.iteri
    (fun a col ->
      let n = col.counts.(s) in
      out.(off + a) <-
        (match col.c.func with
        | Count_star | Count _ -> Value.Int n
        | _ when n = 0 -> Value.Null
        | Sum _ | Min _ | Max _ | First _ -> col.values.(s)
        | Avg _ -> Value.Float (col.sums.(s) /. float_of_int n)))
    t.cols
