open Subql_relational

(* Spill-to-disk pipeline breakers.

   Each operator here is the adaptive twin of an in-memory breaker: it
   accumulates hash state exactly as the in-memory operator would until
   the state reaches a row budget, then freezes the resident state and
   routes overflow rows — hash-partitioned on the breaker's key — to
   temp heap files, merging the partitions in a second pass.  The second
   pass reads one partition at a time through a buffer pool, so the
   breaker's resident footprint is bounded by the budget (plus
   batch-sized write buffers) instead of the input cardinality: a
   breaker over a detail-sized input degrades to I/O rather than OOM.

   Soundness of the freeze: a row is only spilled when its key is absent
   from the resident state, and equal keys always hash to the same
   partition — so the resident result and the per-partition results are
   key-disjoint and complete, and their union is the exact answer. *)

let default_partitions = 8

let batch_rows = 512

let registry_counter name = Subql_obs.Metrics.(counter default name)

let m_spills = lazy (registry_counter "exec.spills")

let m_spilled_rows = lazy (registry_counter "exec.spilled_rows")

let m_spilled_bytes = lazy (registry_counter "exec.spilled_bytes")

type outcome = {
  result : Relation.t;
  resident_peak_rows : int;
      (* high-water mark of rows the breaker held resident: hash state,
         write buffers, and second-pass partition state *)
  spilled_rows : int;
  spilled_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Resident-row metering                                                *)
(* ------------------------------------------------------------------ *)

type meter = { mutable live : int; mutable peak : int }

let meter_create () = { live = 0; peak = 0 }

let meter_alloc m n =
  m.live <- m.live + n;
  if m.live > m.peak then m.peak <- m.live

let meter_release m n = m.live <- m.live - n

(* ------------------------------------------------------------------ *)
(* Hash-partitioned temp heap files                                     *)
(* ------------------------------------------------------------------ *)

type part = {
  path : string;
  file : Heap_file.t;
  batch : Tuple.t Vec.t;
  mutable part_rows : int;
}

type parts = {
  schema : Schema.t;
  slots : part option array;
  pmeter : meter;  (* shares the operator's meter: batches are resident *)
}

let parts_create ~meter ~schema n =
  if n <= 0 then invalid_arg "Spill: partitions must be positive";
  { schema; slots = Array.make n None; pmeter = meter }

let part_of ps i =
  match ps.slots.(i) with
  | Some p -> p
  | None ->
    let path = Filename.temp_file "subql_spill" ".heap" in
    let file = Heap_file.write ~path (Relation.create ~check:false ps.schema [||]) in
    let p = { path; file; batch = Vec.create ~dummy:[||] (); part_rows = 0 } in
    ps.slots.(i) <- Some p;
    p

let part_flush ps p =
  let n = Vec.length p.batch in
  if n > 0 then begin
    Heap_file.append p.file (Vec.to_array p.batch);
    Vec.clear p.batch;
    meter_release ps.pmeter n
  end

let parts_push ps i row =
  let p = part_of ps i in
  Vec.push p.batch row;
  p.part_rows <- p.part_rows + 1;
  meter_alloc ps.pmeter 1;
  if Vec.length p.batch >= batch_rows then part_flush ps p

let parts_flush_all ps = Array.iter (function None -> () | Some p -> part_flush ps p) ps.slots

let parts_spilled_rows ps =
  Array.fold_left
    (fun acc -> function None -> acc | Some p -> acc + p.part_rows)
    0 ps.slots

let parts_spilled_bytes ps =
  (* Temp files use the default 8 KiB page size; pages × page size is
     the bytes the breaker pushed through the disk instead of holding
     resident. *)
  Array.fold_left
    (fun acc -> function None -> acc | Some p -> acc + (Heap_file.pages p.file * 8192))
    0 ps.slots

let parts_dispose ps =
  Array.iter
    (function
      | None -> ()
      | Some p ->
        (try Heap_file.close p.file with _ -> ());
        (try Sys.remove p.path with Sys_error _ -> ()))
    ps.slots

(* Second pass: stream each written partition back through a small
   buffer pool (one decoded page resident at a time) into [consume]. *)
let parts_each_source ps ~pool consume =
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some p ->
        if p.part_rows > 0 then consume i (Heap_file.source p.file ~pool))
    ps.slots

let publish ~spilled_rows ~spilled_bytes =
  if spilled_rows > 0 then begin
    Subql_obs.Metrics.incr (Lazy.force m_spills);
    Subql_obs.Metrics.incr ~by:spilled_rows (Lazy.force m_spilled_rows);
    Subql_obs.Metrics.incr ~by:spilled_bytes (Lazy.force m_spilled_bytes)
  end

let key_partition n h = h land max_int mod n

(* ------------------------------------------------------------------ *)
(* GROUP BY                                                             *)
(* ------------------------------------------------------------------ *)

(* Fold a chunk into a grouping state, metering the groups it adds. *)
let fold_groups meter acc ~capacity ~overflow c =
  let before = Ops.Group_acc.size acc in
  Ops.Group_acc.fold_chunk acc ~capacity ~overflow c;
  meter_alloc meter (Ops.Group_acc.size acc - before)

let group_by ?(partitions = default_partitions) ~budget ?keys ~aggs src =
  if budget <= 0 then invalid_arg "Spill.group_by: budget must be positive";
  let schema = Chunk.Source.schema src in
  let meter = meter_create () in
  let acc = Ops.Group_acc.create ?keys ~aggs schema in
  let key_idxs, _ = Ops.group_schema ?keys ~aggs schema in
  let parts = lazy (parts_create ~meter ~schema partitions) in
  Fun.protect
    ~finally:(fun () -> if Lazy.is_val parts then parts_dispose (Lazy.force parts))
    (fun () ->
      (* Rows of resident groups keep folding in place even after the
         freeze; only rows of unseen keys go to disk. *)
      let overflow row =
        parts_push (Lazy.force parts) (key_partition partitions (Index.key_hash row key_idxs)) row
      in
      Chunk.Source.iter (fold_groups meter acc ~capacity:budget ~overflow) src;
      let resident = Ops.Group_acc.result acc in
      if not (Lazy.is_val parts) then
        {
          result = resident;
          resident_peak_rows = meter.peak;
          spilled_rows = 0;
          spilled_bytes = 0;
        }
      else begin
        let ps = Lazy.force parts in
        parts_flush_all ps;
        let spilled_rows = parts_spilled_rows ps in
        let spilled_bytes = parts_spilled_bytes ps in
        publish ~spilled_rows ~spilled_bytes;
        let pool = Buffer_pool.create ~frames:4 in
        let pieces = ref [ Relation.rows resident ] in
        parts_each_source ps ~pool (fun _ psrc ->
            let sub = Ops.Group_acc.create ?keys ~aggs schema in
            Chunk.Source.iter (fold_groups meter sub ~capacity:max_int ~overflow:ignore) psrc;
            let rows = Relation.rows (Ops.Group_acc.result sub) in
            meter_release meter (Ops.Group_acc.size sub);
            pieces := rows :: !pieces);
        {
          result =
            Relation.create ~check:false (Relation.schema resident)
              (Array.concat (List.rev !pieces));
          resident_peak_rows = meter.peak;
          spilled_rows;
          spilled_bytes;
        }
      end)

(* ------------------------------------------------------------------ *)
(* Grace hash join                                                      *)
(* ------------------------------------------------------------------ *)

(* One side of the join, collected with a row cap: in memory when it
   fits, hash-partitioned on its equi-key columns otherwise.  Partitions
   hash the whole key with NULL included ({!Index.key_hash}), so a NULL on
   a null-safe ([<=>]) column lands with the NULLs it matches.  On a
   plain column a NULL matches nothing wherever it lands, and
   outer/anti semantics still see each left row exactly once. *)
type side = In_mem of Tuple.t array | On_disk of parts

let collect_side ~meter ~partitions ~budget ~schema ~cols src =
  let route ps row = parts_push ps (key_partition partitions (Index.key_hash row cols)) row in
  let buf = Vec.create ~dummy:[||] () in
  let spilled = ref None in
  Chunk.Source.iter
    (fun c ->
      Chunk.iter
        (fun row ->
          match !spilled with
          | Some ps -> route ps row
          | None ->
            Vec.push buf row;
            meter_alloc meter 1;
            if Vec.length buf > budget then begin
              let ps = parts_create ~meter ~schema partitions in
              Vec.iter (fun r -> route ps r) buf;
              meter_release meter (Vec.length buf);
              Vec.clear buf;
              spilled := Some ps
            end)
        c)
    src;
  match !spilled with
  | None -> In_mem (Vec.to_array buf)
  | Some ps ->
    parts_flush_all ps;
    On_disk ps

(* Partition an in-memory side with the same hash the disk side used,
   so partition i joins partition i only. *)
let partition_rows ~partitions ~cols rows =
  let out = Array.init partitions (fun _ -> Vec.create ~dummy:[||] ()) in
  Array.iter
    (fun row -> Vec.push out.(key_partition partitions (Index.key_hash row cols)) row)
    rows;
  Array.map Vec.to_array out

let join ?(partitions = default_partitions) ~budget ~strategy ~kind ~cond
    ~left ~right () =
  if budget <= 0 then invalid_arg "Spill.join: budget must be positive";
  let ls = Chunk.Source.schema left and rs = Chunk.Source.schema right in
  let out_schema =
    match kind with
    | Ops.Inner | Ops.Left_outer -> Schema.concat ls rs
    | Ops.Semi | Ops.Anti -> ls
  in
  let keys, _ = Expr.split_equi ~left:ls ~right:rs cond in
  match keys with
  | [] ->
    (* No equi-key to partition on: the join cannot spill; fall through
       to the in-memory operator, which holds the right input and streams
       the left (as the planner's memory height charges this shape). *)
    let r = Chunk.Source.to_relation right in
    {
      result = Chunk.Source.to_relation (Ops.join ~strategy ~kind cond ~build:r left);
      resident_peak_rows = Relation.cardinality r;
      spilled_rows = 0;
      spilled_bytes = 0;
    }
  | _ ->
    let lcols, rcols, _ = Expr.key_columns keys in
    (* The same in-memory operator the executor runs, per partition pair. *)
    let join_rows lrows rrows =
      Chunk.Source.to_relation
        (Ops.join ~strategy ~kind cond ~build:(Relation.create ~check:false rs rrows)
           (Chunk.Source.of_relation (Relation.create ~check:false ls lrows)))
    in
    let meter = meter_create () in
    let lside = collect_side ~meter ~partitions ~budget ~schema:ls ~cols:lcols left in
    let rside = collect_side ~meter ~partitions ~budget ~schema:rs ~cols:rcols right in
    let dispose () =
      (match lside with On_disk ps -> parts_dispose ps | In_mem _ -> ());
      match rside with On_disk ps -> parts_dispose ps | In_mem _ -> ()
    in
    Fun.protect ~finally:dispose (fun () ->
        match lside, rside with
        | In_mem l, In_mem r ->
          {
            result = join_rows l r;
            resident_peak_rows = meter.peak;
            spilled_rows = 0;
            spilled_bytes = 0;
          }
        | _ ->
          let spilled_rows, spilled_bytes =
            let count = function
              | On_disk ps -> (parts_spilled_rows ps, parts_spilled_bytes ps)
              | In_mem _ -> (0, 0)
            in
            let la, lb = count lside and ra, rb = count rside in
            (la + ra, lb + rb)
          in
          publish ~spilled_rows ~spilled_bytes;
          let pool = Buffer_pool.create ~frames:4 in
          let mem_partitioned side cols =
            match side with
            | In_mem rows -> Some (partition_rows ~partitions ~cols rows)
            | On_disk _ -> None
          in
          let lmem = mem_partitioned lside lcols and rmem = mem_partitioned rside rcols in
          let fetch side mem i =
            match mem with
            | Some parts -> parts.(i)
            | None -> (
              match side with
              | In_mem _ -> assert false
              | On_disk ps -> (
                match ps.slots.(i) with
                | Some p when p.part_rows > 0 ->
                  Relation.rows (Chunk.Source.to_relation (Heap_file.source p.file ~pool))
                | Some _ | None -> [||]))
          in
          let pieces = ref [] in
          for i = 0 to partitions - 1 do
            let lrows = fetch lside lmem i and rrows = fetch rside rmem i in
            if Array.length lrows > 0 then begin
              meter_alloc meter (Array.length lrows + Array.length rrows);
              let out = join_rows lrows rrows in
              meter_release meter (Array.length lrows + Array.length rrows);
              pieces := Relation.rows out :: !pieces
            end
          done;
          {
            result =
              Relation.create ~check:false out_schema (Array.concat (List.rev !pieces));
            resident_peak_rows = meter.peak;
            spilled_rows;
            spilled_bytes;
          })
