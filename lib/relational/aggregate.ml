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

(* ------------------------------------------------------------------ *)
(* Aggregate kinds                                                      *)
(* ------------------------------------------------------------------ *)

(* What a kind keeps per slot beside its count, which also picks its
   chunk loop: nothing (COUNT( * ) counts rows, COUNT non-NULL values), a
   boxed value that a new one replaces when [replace n v current] holds
   (MIN, MAX, FIRST), an unboxed int sum that turns boxed at the first
   non-[Int] value (SUM), or an unboxed float sum (AVG). *)
type shape =
  | Rows
  | Non_null
  | Boxed of (int -> Value.t -> Value.t -> bool)
  | Int_sum
  | Float_sum

type kind = { label : string; shape : shape; order_sensitive : bool; retractable : bool }

(* One entry per kind.  FIRST keeps the earliest non-NULL value, so
   which of two partial states came first decides its merge; every other
   state is a commutative combination. *)
let kind =
  let k label shape ~retractable ~order_sensitive = { label; shape; order_sensitive; retractable } in
  let extremum label sign =
    let replace n v cur = n = 0 || sign * Value.compare v cur > 0 in
    k label (Boxed replace) ~retractable:false ~order_sensitive:false
  in
  let count_star = k "count" Rows ~retractable:true ~order_sensitive:false
  and count = k "count" Non_null ~retractable:true ~order_sensitive:false
  and sum = k "sum" Int_sum ~retractable:true ~order_sensitive:false
  and min = extremum "min" (-1)
  and max = extremum "max" 1
  and avg = k "avg" Float_sum ~retractable:true ~order_sensitive:false
  and first = k "first" (Boxed (fun n _ _ -> n = 0)) ~retractable:false ~order_sensitive:true in
  function
  | Count_star -> count_star
  | Count _ -> count
  | Sum _ -> sum
  | Min _ -> min
  | Max _ -> max
  | Avg _ -> avg
  | First _ -> first

let order_sensitive f = (kind f).order_sensitive

let retractable f = (kind f).retractable

let output_ty frames spec =
  match (kind spec.func).shape, arg spec.func with
  | (Rows | Non_null), _ | _, None -> Value.Tint
  | Float_sum, _ -> Value.Tfloat
  | (Boxed _ | Int_sum), Some e -> (
    match Expr.infer frames e with
    | Some ty -> ty
    | None -> Value.Tint (* aggregating a NULL literal; any type will do *))

let equal_func a b = kind a == kind b && Option.equal Expr.equal (arg a) (arg b)

let func_to_string f =
  Printf.sprintf "%s(%s)" (kind f).label
    (match arg f with None -> "*" | Some e -> Expr.to_string e)

let pp_spec ppf (spec : spec) = Format.fprintf ppf "%s -> %s" (func_to_string spec.func) spec.name

(* ------------------------------------------------------------------ *)
(* The slot-addressed store                                             *)
(* ------------------------------------------------------------------ *)

(* An argument: none, a column of the innermost frame, or an expression. *)
type read = No_arg | Column of int | Eval of (Tuple.t array -> Value.t)

type compiled = { func : func; read : read; inner : int }

let compile frames (spec : spec) =
  let inner = Array.length frames - 1 in
  let read =
    match arg spec.func with
    | None -> No_arg
    | Some (Expr.Attr (rel, name) as e) -> (
      match Expr.resolve frames (rel, name) with
      | Some (f, pos) when f = inner -> Column pos
      | _ -> Eval (Expr.compile_frames frames e))
    | Some e -> Eval (Expr.compile_frames frames e)
  in
  { func = spec.func; read; inner }

(* One column of state per aggregate (the layout of the .mli).  SUM's
   sum is [ints.(s)] while [values.(s)] is [Null], [values.(s)] after.
   AVG's [inexact.(s)] is set once its float sum may have rounded. *)
type column = {
  c : compiled;
  kind : kind;
  mutable counts : int array;
  mutable values : Value.t array;
  mutable ints : int array;
  mutable floats : float array;
  mutable inexact : bool array;
}

type states = {
  cols : column array;
  ctx : Tuple.t array;
  mutable slots : int;
  mutable capacity : int;
}

let sized capacity col =
  let fit a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 (min capacity (Array.length a));
    b
  in
  col.counts <- fit col.counts 0;
  (match col.kind.shape with
  | Rows | Non_null -> ()
  | Boxed _ -> col.values <- fit col.values Value.Null
  | Int_sum ->
    col.values <- fit col.values Value.Null;
    col.ints <- fit col.ints 0
  | Float_sum ->
    col.floats <- fit col.floats 0.0;
    col.inexact <- fit col.inexact false);
  col

let states compiled ~slots =
  let inner = Array.fold_left (fun m c -> max m c.inner) 0 compiled in
  let column c =
    { c; kind = kind c.func; counts = [||]; values = [||]; ints = [||]; floats = [||]; inexact = [||] }
  in
  { cols = Array.map (fun c -> sized slots (column c)) compiled; ctx = Array.make (inner + 1) Tuple.empty;
    slots; capacity = slots }

let width t = Array.length t.cols

let add_slot t =
  if t.slots = t.capacity then begin
    t.capacity <- max 16 (2 * t.capacity);
    Array.iter (fun col -> ignore (sized t.capacity col)) t.cols
  end;
  t.slots <- t.slots + 1;
  t.slots - 1

let[@inline] to_float = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | v -> Value.type_error "avg over non-numeric value %s" (Value.to_string v)

(* An AVG sum is exact — every partial sum of any subset of its values
   an integer below 2^53 in magnitude, so taking a value back out gives
   what folding the rest afresh would — while it has taken only [Int]s
   of magnitude at most 2^31 into at most 2^22 live values.  [n] is the
   count after the value. *)
let[@inline] exact_term n = function
  | Value.Int i -> i <= 1 lsl 31 && i >= -(1 lsl 31) && n <= 1 lsl 22
  | _ -> false

let sum_value col s = match col.values.(s) with Value.Null -> Value.Int col.ints.(s) | v -> v

(* A non-empty slot's running state, as [fold] takes it when merging. *)
let partial col s =
  match col.kind.shape with
  | Rows | Non_null -> Value.Null
  | Boxed _ -> col.values.(s)
  | Int_sum -> sum_value col s
  | Float_sum -> Value.Float col.floats.(s)

(* Fold one non-NULL value — or another partition's [partial] — into
   slot [s] holding [n] values.  The first value seeds a SUM: an [Int]
   into [ints], anything else boxed, so a SUM over [-0.] is [-0.]; AVG's
   sum starts at [0.0] and adds every value, so an AVG over [-0.] is
   [0.]. *)
let fold col s n v =
  match col.kind.shape, col.values, v with
  | (Rows | Non_null), _, _ -> ()
  | Boxed replace, values, v -> if replace n v values.(s) then values.(s) <- v
  | Int_sum, values, Value.Int i when n = 0 ->
    values.(s) <- Value.Null;
    col.ints.(s) <- i
  | Int_sum, values, v when n = 0 -> values.(s) <- v
  | Int_sum, values, Value.Int i when values.(s) == Value.Null -> col.ints.(s) <- col.ints.(s) + i
  | Int_sum, values, v -> values.(s) <- Value.add (sum_value col s) v
  | Float_sum, _, v ->
    col.floats.(s) <- col.floats.(s) +. to_float v;
    if not (exact_term (n + 1) v) then col.inexact.(s) <- true

let unfold col s v =
  match col.kind.shape, v with
  | (Rows | Non_null), _ -> ()
  | Int_sum, Value.Int i when col.values.(s) == Value.Null -> col.ints.(s) <- col.ints.(s) - i
  | Int_sum, v -> col.values.(s) <- Value.sub (sum_value col s) v
  | Float_sum, v -> col.floats.(s) <- col.floats.(s) -. to_float v
  | Boxed _, _ -> invalid_arg ("Aggregate: " ^ func_to_string col.c.func ^ " cannot be retracted")

let final col s =
  match col.kind.shape, col.counts.(s) with
  | (Rows | Non_null), n -> Value.Int n
  | _, 0 -> Value.Null
  | Float_sum, n -> Value.Float (col.floats.(s) /. float_of_int n)
  | (Boxed _ | Int_sum), _ -> partial col s

let read col ctx =
  match col.c.read with
  | No_arg -> Value.Null
  | Column c -> ctx.(col.c.inner).(c)
  | Eval f -> f ctx

(* Fold one argument value into slot [s]: NULLs are skipped, except by
   COUNT( * ), which counts rows. *)
let fold_in col s v =
  let n = col.counts.(s) in
  match col.kind.shape, v with
  | Rows, _ -> col.counts.(s) <- n + 1
  | _, Value.Null -> ()
  | _, v ->
    fold col s n v;
    col.counts.(s) <- n + 1

let step t s ctx = Array.iter (fun col -> fold_in col s (read col ctx)) t.cols

(* ------------------------------------------------------------------ *)
(* The per-chunk kernel                                                 *)
(* ------------------------------------------------------------------ *)

type pairs = { rows : int array; pslots : int array; mutable n : int }

(* Small enough to be allocated on the minor heap. *)
let pairs () = { rows = Array.make 256 0; pslots = Array.make 256 0; n = 0 }

let add_pair p row slot =
  p.rows.(p.n) <- row;
  p.pslots.(p.n) <- slot;
  p.n <- p.n + 1;
  p.n = Array.length p.rows

(* Pair [i]'s argument for [col]: a bare column in place, anything else
   in the context of its row innermost and, unless [outer] is empty,
   its slot's outer row in frame 0. *)
let arg_at t ~outer buf p i col =
  match col.c.read with
  | Column c -> buf.(p.rows.(i)).(c)
  | No_arg | Eval _ ->
    t.ctx.(col.c.inner) <- buf.(p.rows.(i));
    if Array.length outer > 0 then t.ctx.(0) <- outer.(p.pslots.(i));
    read col t.ctx

(* Each column in one loop over the pairs, chosen by its kind's shape
   and argument: an [Int] read in place adds into SUM's unboxed sum
   while the slot has seen only [Int]s, and an [Int] or [Float] into
   AVG's; everything else — and every retraction — goes value by
   value. *)
let fold_pairs ~retract t ~outer buf p =
  let rows = p.rows and slots = p.pslots in
  Array.iter
    (fun col ->
      let counts = col.counts in
      match retract, col.kind.shape, col.c.read with
      | false, Rows, _ ->
        for i = 0 to p.n - 1 do
          counts.(slots.(i)) <- counts.(slots.(i)) + 1
        done
      | false, Int_sum, Column c ->
        let ints = col.ints and values = col.values in
        for i = 0 to p.n - 1 do
          let s = slots.(i) in
          match buf.(rows.(i)).(c), values.(s) with
          | Value.Int x, Value.Null ->
            ints.(s) <- ints.(s) + x;
            counts.(s) <- counts.(s) + 1
          | v, _ -> fold_in col s v
        done
      | false, Float_sum, Column c ->
        let floats = col.floats in
        for i = 0 to p.n - 1 do
          let s = slots.(i) in
          match buf.(rows.(i)).(c) with
          | (Value.Int _ | Value.Float _) as v ->
            floats.(s) <- floats.(s) +. to_float v;
            counts.(s) <- counts.(s) + 1;
            if not (exact_term counts.(s) v) then col.inexact.(s) <- true
          | v -> fold_in col s v
        done
      | false, _, _ ->
        for i = 0 to p.n - 1 do
          fold_in col slots.(i) (arg_at t ~outer buf p i col)
        done
      | true, shape, _ ->
        for i = 0 to p.n - 1 do
          let s = slots.(i) and v = arg_at t ~outer buf p i col in
          if (match shape with Rows -> true | _ -> not (Value.is_null v)) then begin
            unfold col s v;
            counts.(s) <- counts.(s) - 1
          end
        done)
    t.cols;
  p.n <- 0

let exact_retraction t ~outer buf p =
  let exact = ref true in
  Array.iter
    (fun col ->
      for i = 0 to p.n - 1 do
        let s = p.pslots.(i) in
        match col.kind.shape with
        | Rows | Non_null -> ()
        | Boxed _ -> exact := false
        | Int_sum -> (
          if col.values.(s) != Value.Null then exact := false;
          match arg_at t ~outer buf p i col with Value.Int _ | Value.Null -> () | _ -> exact := false)
        | Float_sum ->
          let v = arg_at t ~outer buf p i col in
          if col.inexact.(s) || not (v == Value.Null || exact_term 0 v) then exact := false
      done)
    t.cols;
  p.n <- 0;
  !exact

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
          fold dst s n (partial src s);
          dst.counts.(s) <- n + m
        end
      done)
    into.cols other.cols

let write t s out off = Array.iteri (fun a col -> out.(off + a) <- final col s) t.cols
