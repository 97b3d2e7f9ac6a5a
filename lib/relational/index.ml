(* A chained hash index of key groups, numbered densely.  Entries are
   hashed into [heads] and linked through [next_entry]; a probe compares
   values only with an entry whose hash matches.

   A {e built} index has an entry per row, and the row array is its key
   store: a group is entered under its first row, [group_of] numbers
   rows' groups in the order of their first rows, and [next] links a
   group's rows in insertion order — four row-sized arrays besides the
   buckets.  A {e growing} index has an entry per group, holding the
   group's projected key in [keys], numbered in first-seen order. *)
type t = {
  cols : int array;
  null_safe : bool array;
  key_cols : int array;  (** where an entry's key sits in [keys] *)
  built : bool;
  mutable keys : Tuple.t array;
  mutable hashes : int array;
  mutable next_entry : int array;
  mutable heads : int array;
  mutable groups : int;
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

(* The entry in the bucket chain starting at [e] whose key equals [row]
   at [cols] (hash [h]), or -1. *)
let rec find_in t h row cols e =
  if e < 0 || (t.hashes.(e) = h && keys_equal t.keys.(e) t.key_cols row cols 0) then e
  else find_in t h row cols t.next_entry.(e)

let find_entry t row cols =
  if excluded t.null_safe row cols 0 then -1
  else
    let h = key_hash row cols in
    find_in t h row cols t.heads.(bucket t h)

let find t row cols =
  match find_entry t row cols with -1 -> -1 | e -> if t.built then t.group_of.(e) else e

let link t e =
  let b = bucket t t.hashes.(e) in
  t.next_entry.(e) <- t.heads.(b);
  t.heads.(b) <- e

let rec pow2 rows n = if n >= rows then n else pow2 rows (2 * n)

let build_rows ?null_safe rows cols =
  let null_safe =
    match null_safe with
    | None -> Array.make (Array.length cols) false
    | Some a when Array.length a = Array.length cols -> a
    | Some _ -> invalid_arg "Index.build_rows: one null-safety flag per key column"
  in
  let n = Array.length rows in
  let per_row fill = Array.make n fill in
  let t =
    { cols; null_safe; key_cols = cols; built = true; keys = rows; hashes = per_row 0;
      next_entry = per_row (-1); heads = Array.make (pow2 n 16) (-1); groups = 0;
      next = per_row (-1); group_of = per_row (-1) }
  in
  (* Last row first, so that prepending links a group's rows in
     ascending order; each earlier row of a known group takes over its
     bucket-chain place, so the group ends up entered under its first
     row.  [group_of] is -2 on an included row until groups are
     numbered. *)
  for i = n - 1 downto 0 do
    let row = rows.(i) in
    if not (excluded null_safe row cols 0) then begin
      let h = key_hash row cols in
      let b = bucket t h in
      t.hashes.(i) <- h;
      t.group_of.(i) <- -2;
      let rec walk prev e =
        if e < 0 then begin
          t.next_entry.(i) <- t.heads.(b);
          t.heads.(b) <- i
        end
        else if t.hashes.(e) = h && keys_equal rows.(e) cols row cols 0 then begin
          t.next.(i) <- e;
          t.next_entry.(i) <- t.next_entry.(e);
          if prev < 0 then t.heads.(b) <- i else t.next_entry.(prev) <- i
        end
        else walk e t.next_entry.(e)
      in
      walk (-1) t.heads.(b)
    end
  done;
  for i = 0 to n - 1 do
    if t.group_of.(i) = -2 then begin
      let g = t.groups in
      t.groups <- g + 1;
      let j = ref i in
      while !j >= 0 do
        t.group_of.(!j) <- g;
        j := t.next.(!j)
      done
    end
  done;
  t

let growing cols =
  let k = Array.length cols in
  { cols; null_safe = Array.make k true; key_cols = Array.init k Fun.id; built = false; keys = [||];
    hashes = [||]; next_entry = [||]; heads = Array.make 16 (-1); groups = 0; next = [||];
    group_of = [||] }

(* A growing index's new last group for [key] (hash [h]): it doubles its
   arrays when full, and its buckets once groups outnumber them. *)
let grow a fill = Array.append a (Array.make (max 16 (Array.length a)) fill)

let insert t h key =
  let g = t.groups in
  if g = Array.length t.keys then begin
    t.keys <- grow t.keys Tuple.empty;
    t.hashes <- grow t.hashes 0;
    t.next_entry <- grow t.next_entry (-1)
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

let find_or_add t row =
  let h = key_hash row t.cols in
  match find_in t h row t.cols t.heads.(bucket t h) with
  | -1 ->
    let whole = Array.length row = Array.length t.cols && t.cols = t.key_cols in
    insert t h (if whole then row else Tuple.project row t.cols)
  | g -> g

let group_of t i = t.group_of.(i)

let keys t =
  if not t.built then Array.sub t.keys 0 t.groups
  else begin
    (* Each group's first row: the last write for a group wins. *)
    let out = Array.make t.groups Tuple.empty in
    for i = Array.length t.keys - 1 downto 0 do
      if t.group_of.(i) >= 0 then out.(t.group_of.(i)) <- t.keys.(i)
    done;
    out
  end

let iter_entry t e f =
  let j = ref e in
  while !j >= 0 do
    f !j;
    j := t.next.(!j)
  done

let probe_row_iter t row cols f = iter_entry t (find_entry t row cols) f

let cardinality t = t.groups
