(* A chained hash index over a row array.  Rows with equal keys form a
   group, linked by [next] in ascending (insertion) order and entered
   through its first row.  [heads] maps a bucket to the first row of one
   of its groups, and [next_group] links a group's first row to the
   bucket's next group.  A probe compares key values once per group it
   passes (usually one), never per matching row, and a group's first row
   keeps the key hash that comparison checks first.  Rows excluded by a
   NULL in a non-null-safe key column sit in no group. *)
type t = {
  rows : Tuple.t array;
  cols : int array;
  null_safe : bool array;
  ident : int array;  (** [0 .. k-1]: where a bare key tuple holds its columns *)
  mask : int;
  heads : int array;
  next_group : int array;
  next : int array;
  hashes : int array;
  distinct : int;
}

(* A NULL in a non-null-safe key column: such a row can match nothing. *)
let excluded null_safe (row : Tuple.t) cols =
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < Array.length cols do
    if (not null_safe.(!i)) && Value.is_null row.(cols.(!i)) then hit := true;
    incr i
  done;
  !hit

let key_hash (row : Tuple.t) cols =
  let h = ref 17 in
  for i = 0 to Array.length cols - 1 do
    h := (!h * 31) + Value.hash row.(cols.(i))
  done;
  !h

let bucket t h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land t.mask

let keys_equal (a : Tuple.t) acols (b : Tuple.t) bcols =
  let eq = ref true and i = ref 0 in
  while !eq && !i < Array.length acols do
    if not (Value.equal a.(acols.(!i)) b.(bcols.(!i))) then eq := false;
    incr i
  done;
  !eq

(* The first row of the group in [t]'s bucket chain starting at [g]
   whose key equals [row] at [cols] (hash [h]), or -1. *)
let rec find_group t h row cols g =
  if g < 0 || (t.hashes.(g) = h && keys_equal t.rows.(g) t.cols row cols) then g
  else find_group t h row cols t.next_group.(g)

let build_rows ?null_safe rows cols =
  let k = Array.length cols in
  let null_safe =
    match null_safe with
    | None -> Array.make k false
    | Some a when Array.length a = k -> a
    | Some _ -> invalid_arg "Index.build_rows: one null-safety flag per key column"
  in
  let n = Array.length rows in
  let size = ref 16 in
  while !size < n do
    size := 2 * !size
  done;
  let t =
    {
      rows;
      cols;
      null_safe;
      ident = Array.init k Fun.id;
      mask = !size - 1;
      heads = Array.make !size (-1);
      next_group = Array.make n (-1);
      next = Array.make n (-1);
      hashes = Array.make n 0;
      distinct = 0;
    }
  in
  let distinct = ref 0 in
  (* [last.(g)]: the latest row of the group first row [g] enters, where
     the next equal row is appended. *)
  let last = Array.make n (-1) in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    if not (excluded null_safe row cols) then begin
      let h = key_hash row cols in
      let b = bucket t h in
      t.hashes.(i) <- h;
      let g = find_group t h row cols t.heads.(b) in
      if g < 0 then begin
        incr distinct;
        t.next_group.(i) <- t.heads.(b);
        t.heads.(b) <- i;
        last.(i) <- i
      end
      else begin
        t.next.(last.(g)) <- i;
        last.(g) <- i
      end
    end
  done;
  { t with distinct = !distinct }

let build ?null_safe rel cols = build_rows ?null_safe (Relation.rows rel) cols

let probe_row_iter t row cols f =
  if not (excluded t.null_safe row cols) then begin
    let h = key_hash row cols in
    let j = ref (find_group t h row cols t.heads.(bucket t h)) in
    while !j >= 0 do
      f !j;
      j := t.next.(!j)
    done
  end

let probe_iter t key f = probe_row_iter t key t.ident f

let probe t key =
  let acc = ref [] in
  probe_iter t key (fun i -> acc := i :: !acc);
  List.rev !acc

let key_of t row =
  if excluded t.null_safe row t.cols then None else Some (Tuple.project row t.cols)

let cardinality t = t.distinct
