(* A chained hash index of key groups, numbered densely.  Group [g] keeps its key in [keys.(g)] at [key_cols] and the
   key's hash in [hashes.(g)]; [heads] maps a bucket to one of its groups
   and [next_group] links the bucket's groups, so a probe compares values
   only with a group whose hash matches.  A built index's group is keyed
   by one of its rows, and its rows link in insertion order from
   [first.(g)] through [next]; a growing index holds only groups,
   numbered in first-seen order. *)
type t = {
  cols : int array;
  null_safe : bool array;
  key_cols : int array;
  mutable keys : Tuple.t array;
  mutable hashes : int array;
  mutable next_group : int array;
  mutable heads : int array;
  mutable groups : int;
  first : int array;
  next : int array;
  group_of : int array;
}

(* A NULL in a non-null-safe key column, from the [i]th on: such a row
   can match nothing. *)
let rec excluded null_safe (row : Tuple.t) cols i =
  i < Array.length cols
  && (((not null_safe.(i)) && Value.is_null row.(cols.(i))) || excluded null_safe row cols (i + 1))

let key_hash (row : Tuple.t) cols =
  let h = ref 17 in
  for i = 0 to Array.length cols - 1 do
    h := (!h * 31) + Value.hash row.(cols.(i))
  done;
  !h

let bucket t h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land (Array.length t.heads - 1)

let rec keys_equal (a : Tuple.t) acols (b : Tuple.t) bcols i =
  i >= Array.length acols || (Value.equal a.(acols.(i)) b.(bcols.(i)) && keys_equal a acols b bcols (i + 1))

(* The group in the bucket chain starting at [g] whose key equals [row]
   at [cols] (hash [h]), or -1. *)
let rec find_in t h row cols g =
  if g < 0 || (t.hashes.(g) = h && keys_equal t.keys.(g) t.key_cols row cols 0) then g
  else find_in t h row cols t.next_group.(g)

let find t row cols =
  if excluded t.null_safe row cols 0 then -1
  else
    let h = key_hash row cols in
    find_in t h row cols t.heads.(bucket t h)

let link t g =
  let b = bucket t t.hashes.(g) in
  t.next_group.(g) <- t.heads.(b);
  t.heads.(b) <- g

(* A new last group for [key] (hash [h]); a growing index doubles its
   arrays when full, and its buckets once groups outnumber them. *)
let grow a fill = Array.append a (Array.make (max 16 (Array.length a)) fill)

let insert t h key =
  let g = t.groups in
  if g = Array.length t.keys then begin
    t.keys <- grow t.keys Tuple.empty;
    t.hashes <- grow t.hashes 0;
    t.next_group <- grow t.next_group (-1)
  end;
  if g = Array.length t.heads then begin
    t.heads <- Array.make (2 * g) (-1);
    for j = 0 to g - 1 do
      link t j
    done
  end;
  t.keys.(g) <- key;
  t.hashes.(g) <- h;
  link t g;
  t.groups <- g + 1;
  g

let make ~null_safe ~key_cols ~rows cols =
  let per_row fill = Array.make rows fill in
  let rec pow2 n = if n >= rows then n else pow2 (2 * n) in
  { cols; null_safe; key_cols; keys = per_row Tuple.empty; hashes = per_row 0;
    next_group = per_row (-1); heads = Array.make (pow2 16) (-1);
    groups = 0; first = per_row (-1); next = per_row (-1); group_of = per_row (-1) }

let build_rows ?null_safe rows cols =
  let null_safe =
    match null_safe with
    | None -> Array.make (Array.length cols) false
    | Some a when Array.length a = Array.length cols -> a
    | Some _ -> invalid_arg "Index.build_rows: one null-safety flag per key column"
  in
  let t = make ~null_safe ~key_cols:cols ~rows:(Array.length rows) cols in
  (* Last row first, so that prepending links a group's rows in
     ascending order. *)
  for i = Array.length rows - 1 downto 0 do
    let row = rows.(i) in
    if not (excluded null_safe row cols 0) then begin
      let h = key_hash row cols in
      let g = match find_in t h row cols t.heads.(bucket t h) with -1 -> insert t h row | g -> g in
      t.next.(i) <- t.first.(g);
      t.first.(g) <- i;
      t.group_of.(i) <- g
    end
  done;
  t

let growing cols =
  let k = Array.length cols in
  make ~null_safe:(Array.make k true) ~key_cols:(Array.init k Fun.id) ~rows:0 cols

let find_or_add t row =
  let h = key_hash row t.cols in
  match find_in t h row t.cols t.heads.(bucket t h) with
  | -1 ->
    let whole = Array.length row = Array.length t.cols && t.cols = t.key_cols in
    insert t h (if whole then row else Tuple.project row t.cols)
  | g -> g

let group_of t i = t.group_of.(i)

let keys t = Array.sub t.keys 0 t.groups

let probe_row_iter t row cols f =
  let g = find t row cols in
  if g >= 0 then begin
    let j = ref t.first.(g) in
    while !j >= 0 do
      f !j;
      j := t.next.(!j)
    done
  end

let cardinality t = t.groups
