type entry = {
  key : Value.t array;
  key_str : string;
  mutable data : Value.t array;
  header : Row_header.t;
}

(* Key comparisons run per visited row and per binary-search step, so
   they recurse at top level: a local [go] would allocate a closure per
   call. *)
let rec compare_keys_from a b i =
  if i >= Array.length a then if i >= Array.length b then 0 else -1
  else if i >= Array.length b then 1
  else
    let c = Value.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_keys_from a b (i + 1)

let compare_keys a b = compare_keys_from a b 0

module Key_map = Map.Make (struct
  type t = Value.t array

  let compare = compare_keys
end)

type sec_index = {
  idx_cols : int array;
  mutable idx_map : entry list Key_map.t;
}

let key_hash key_str = Hashtbl.hash key_str land max_int

(* The primary index: open addressing with linear probing over two
   parallel arrays. [hashes.(i)] holds the full [key_hash] of the entry
   in [slots.(i)], or [vacant_hash] when the slot is free, so a probe
   compares ints from one array and dereferences an entry (and its
   [key_str]) only when the stored hash matches. Deletion shifts the rest
   of the probe run back over the hole, so there are no tombstone slots
   and every run is the contiguous block after its home slot. The
   capacity is a power of two, doubled before the load factor passes
   7/10.

   Slot order depends on the hash function and the insertion history,
   so nothing observable may depend on it. Every walk over the slots
   either sorts what it collects ([iter_sorted], which the digest and
   [Checkpoint] share, and [live_sorted]) or does not depend on order
   ([copy], [purge_tombstones]). *)
type pk_index = {
  mutable hashes : int array;
  mutable slots : entry array;
  mutable count : int;
  vacant : entry;  (* fills free slots; never returned *)
}

let vacant_hash = -1

let vacant_entry () =
  { key = [||]; key_str = ""; data = [||]; header = Row_header.create () }

let pk_create capacity =
  let vacant = vacant_entry () in
  {
    hashes = Array.make capacity vacant_hash;
    slots = Array.make capacity vacant;
    count = 0;
    vacant;
  }

let pk_initial_capacity = 1024

(* [count + 1] entries fit below the 7/10 load factor. *)
let pk_fits capacity count = 10 * (count + 1) <= 7 * capacity

(* Slot of [key_str] (hash [h]), or -1. *)
let pk_slot ix key_str h =
  let hashes = ix.hashes in
  let mask = Array.length hashes - 1 in
  let rec go i =
    let sh = Array.unsafe_get hashes i in
    if sh = vacant_hash then -1
    else if sh = h && String.equal (Array.unsafe_get ix.slots i).key_str key_str
    then i
    else go ((i + 1) land mask)
  in
  go (h land mask)

let pk_find ix key_str =
  let i = pk_slot ix key_str (key_hash key_str) in
  if i < 0 then None else Some (Array.unsafe_get ix.slots i)

(* Place an entry known to be absent; the caller has made room. *)
let pk_place ix h entry =
  let hashes = ix.hashes in
  let mask = Array.length hashes - 1 in
  let rec go i =
    if Array.unsafe_get hashes i = vacant_hash then begin
      hashes.(i) <- h;
      ix.slots.(i) <- entry
    end
    else go ((i + 1) land mask)
  in
  go (h land mask)

let pk_grow ix =
  let old_hashes = ix.hashes and old_slots = ix.slots in
  let capacity = 2 * Array.length old_hashes in
  ix.hashes <- Array.make capacity vacant_hash;
  ix.slots <- Array.make capacity ix.vacant;
  Array.iteri
    (fun i h -> if h <> vacant_hash then pk_place ix h old_slots.(i))
    old_hashes

(* Insert [entry] in one probe, replacing a tombstone under its key; a
   live row under the key raises [Invalid_argument] naming [fn]. *)
let pk_add ix entry ~fn =
  let h = key_hash entry.key_str in
  let i = pk_slot ix entry.key_str h in
  if i >= 0 then begin
    if not (Array.unsafe_get ix.slots i).header.deleted then
      invalid_arg (fn ^ ": live row exists");
    ix.slots.(i) <- entry
  end
  else begin
    if not (pk_fits (Array.length ix.hashes) ix.count) then pk_grow ix;
    pk_place ix h entry;
    ix.count <- ix.count + 1
  end

(* Backward-shift deletion of slot [hole]: walk the run after it and
   move back every entry whose home slot is not cyclically inside
   (hole, j], so each stays reachable from its home without a gap. *)
let pk_remove_slot ix hole =
  let hashes = ix.hashes and slots = ix.slots in
  let mask = Array.length hashes - 1 in
  let rec shift hole j =
    let h = hashes.(j) in
    if h = vacant_hash then begin
      hashes.(hole) <- vacant_hash;
      slots.(hole) <- ix.vacant
    end
    else
      let home = h land mask in
      let stays =
        if hole <= j then hole < home && home <= j else hole < home || home <= j
      in
      if stays then shift hole ((j + 1) land mask)
      else begin
        hashes.(hole) <- h;
        slots.(hole) <- slots.(j);
        shift j ((j + 1) land mask)
      end
  in
  shift hole ((hole + 1) land mask);
  ix.count <- ix.count - 1

let pk_iter ix f =
  let hashes = ix.hashes and slots = ix.slots in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i <> vacant_hash then f (Array.unsafe_get slots i)
  done

let pk_fold ix f acc =
  let acc = ref acc in
  pk_iter ix (fun e -> acc := f e !acc);
  !acc

(* A same-capacity copy: each slot keeps its position and holds [f] of
   its entry. *)
let pk_map ix f =
  let vacant = vacant_entry () in
  {
    hashes = Array.copy ix.hashes;
    slots =
      Array.map2
        (fun h e -> if h = vacant_hash then vacant else f e)
        ix.hashes ix.slots;
    count = ix.count;
    vacant;
  }

(* The ordered index is a dense array of the live entries sorted by
   key. It serves only SQL scans, the secondary-index build and the
   checker, and no op-level workload does any of those, so it is built
   lazily: [ordered_built] is false until the first ordered read, and
   until then [load], the committed-insert paths, [delete] and [revive]
   leave [ordered] (empty) alone. Once built, those mutators replace it
   with a copy one entry longer or shorter (O(n)); no benchmarked
   workload inserts into or deletes from a scanned table, since its
   updates only replace [entry.data]. Replacing rather than shifting
   the array means a scan walks the index as it stood when the scan
   began. *)
type t = {
  schema : Schema.t;
  index : pk_index;
  mutable ordered : entry array;
  mutable ordered_built : bool;
  temp : (string, entry) Hashtbl.t;  (* the epoch's in-flight inserts *)
  indexes : (string, sec_index) Hashtbl.t;
  mutable live : int;
  mutable version : int;
      (* bumped on every digest-relevant mutation; keys [digest_cache] *)
  mutable digest_cache : (int * string) option;
}

let fresh_temp () = Hashtbl.create 128

let create schema =
  {
    schema;
    index = pk_create pk_initial_capacity;
    ordered = [||];
    ordered_built = false;
    temp = fresh_temp ();
    indexes = Hashtbl.create 4;
    live = 0;
    version = 0;
    digest_cache = None;
  }

let touch t = t.version <- t.version + 1
let version t = t.version

(* --- secondary index maintenance --- *)

let project cols data = Array.map (fun i -> data.(i)) cols

let idx_add idx entry =
  let k = project idx.idx_cols entry.data in
  let existing = Option.value ~default:[] (Key_map.find_opt k idx.idx_map) in
  idx.idx_map <- Key_map.add k (entry :: existing) idx.idx_map

let idx_remove idx ~data entry =
  let k = project idx.idx_cols data in
  match Key_map.find_opt k idx.idx_map with
  | None -> ()
  | Some entries -> (
    match List.filter (fun e -> e != entry) entries with
    | [] -> idx.idx_map <- Key_map.remove k idx.idx_map
    | rest -> idx.idx_map <- Key_map.add k rest idx.idx_map)

let indexes_add t entry = Hashtbl.iter (fun _ idx -> idx_add idx entry) t.indexes

let indexes_remove t ~data entry =
  Hashtbl.iter (fun _ idx -> idx_remove idx ~data entry) t.indexes

let schema t = t.schema

(* The first position in [a] whose key is [>= key]. *)
let lower_bound a key =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if compare_keys (Array.unsafe_get a mid).key key < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

(* A key is in the ordered index exactly while its row is live, so an
   added entry's key is absent and a removed one's present. *)
let ordered_add t entry =
  if t.ordered_built then begin
    let a = t.ordered in
    let n = Array.length a in
    let i = lower_bound a entry.key in
    let b = Array.make (n + 1) entry in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    t.ordered <- b
  end

let ordered_remove t entry =
  if t.ordered_built then begin
    let a = t.ordered in
    let n = Array.length a in
    let i = lower_bound a entry.key in
    if i < n && compare_keys a.(i).key entry.key = 0 then begin
      let b = Array.sub a 0 (n - 1) in
      Array.blit a (i + 1) b i (n - 1 - i);
      t.ordered <- b
    end
  end

(* The pk-index entries satisfying [keep], [n] of them, in one array
   sorted by [cmp]. [Array.stable_sort] (a merge sort with an n/2 scratch
   array) beat the in-place heap sort of [Array.sort] by about 15% on a
   cold digest: it makes half the comparisons. *)
let sorted_array ix ~n keep cmp =
  let a = Array.make n ix.vacant in
  let i = ref 0 in
  pk_iter ix (fun e ->
      if keep e then begin
        a.(!i) <- e;
        incr i
      end);
  Array.stable_sort cmp a;
  a

(* The live entries in key order. *)
let live_sorted t =
  sorted_array t.index ~n:t.live
    (fun e -> not e.header.deleted)
    (fun a b -> compare_keys a.key b.key)

(* The ordered index, built on first use by one sort of the live rows. *)
let ordered t =
  if not t.ordered_built then begin
    t.ordered <- live_sorted t;
    t.ordered_built <- true
  end;
  t.ordered

(* Add a live entry to every index. *)
let add_live t entry ~fn =
  pk_add t.index entry ~fn;
  ordered_add t entry;
  indexes_add t entry;
  t.live <- t.live + 1;
  touch t

let load t row =
  (match Schema.validate_row t.schema row with
  | Ok () -> ()
  | Error m -> invalid_arg ("Table.load: " ^ m));
  let key = Schema.primary_key t.schema row in
  let key_str = Value.encode_key key in
  if pk_find t.index key_str <> None then
    invalid_arg "Table.load: duplicate key";
  add_live t { key; key_str; data = row; header = Row_header.create () }
    ~fn:"Table.load"

let find t key_str = pk_find t.index key_str

let find_live t key_str =
  let i = pk_slot t.index key_str (key_hash key_str) in
  if i < 0 then None
  else
    let e = Array.unsafe_get t.index.slots i in
    if e.header.deleted then None else Some e

let mem_live t key_str = find_live t key_str <> None

let write t entry data =
  let old = entry.data in
  entry.data <- data;
  touch t;
  (* a tombstone is in no secondary index; [revive] re-adds it *)
  if Hashtbl.length t.indexes > 0 && not entry.header.deleted then begin
    indexes_remove t ~data:old entry;
    indexes_add t entry
  end

let delete t entry =
  if not entry.header.deleted then begin
    entry.header.deleted <- true;
    ordered_remove t entry;
    indexes_remove t ~data:entry.data entry;
    t.live <- t.live - 1;
    touch t
  end

let revive t entry data =
  if entry.header.deleted then begin
    entry.header.deleted <- false;
    entry.data <- data;
    ordered_add t entry;
    indexes_add t entry;
    t.live <- t.live + 1;
    touch t
  end
  else write t entry data

let insert_committed t ~key ~key_str ~data ~header =
  let entry = { key; key_str; data; header } in
  add_live t entry ~fn:"Table.insert_committed";
  entry

let install_temp t entry data =
  entry.data <- data;
  add_live t entry ~fn:"Table.install_temp"

let temp_find t key_str = Hashtbl.find_opt t.temp key_str

let temp_add t ~key ~key_str =
  match Hashtbl.find_opt t.temp key_str with
  | Some e -> e
  | None ->
    let entry = { key; key_str; data = [||]; header = Row_header.create () } in
    Hashtbl.add t.temp key_str entry;
    entry

let temp_clear t = Hashtbl.reset t.temp

(* Entries [i, stop) of [a] in order to [f]; with [keep], only those
   whose data it holds of, tested in the loop so that a row it rejects
   costs the walk one call. *)
let walk a i stop keep f =
  match keep with
  | None ->
    for j = i to stop - 1 do
      f (Array.unsafe_get a j)
    done
  | Some keep ->
    for j = i to stop - 1 do
      let e = Array.unsafe_get a j in
      if keep e.data then f e
    done

let scan ?keep t ~f =
  let a = ordered t in
  walk a 0 (Array.length a) keep f

let iter_all t ~f = pk_iter t.index f

let iter_sorted t f =
  Array.iter f
    (sorted_array t.index ~n:t.index.count
       (fun _ -> true)
       (fun a b -> String.compare a.key_str b.key_str))

(* [key] against [h] on [h]'s columns only, from column [i]: a shorter
   [hi] bounds the leading key columns. *)
let rec compare_key_prefix key h i =
  if i >= Array.length h then 0
  else if i >= Array.length key then -1
  else
    let c = Value.compare (Array.unsafe_get key i) (Array.unsafe_get h i) in
    if c <> 0 then c else compare_key_prefix key h (i + 1)

(* Live rows from the first key [>= from] (or the first key) in key
   order while [continue key] holds: a binary-search seek, then a walk
   along the array that allocates nothing per row. *)
let iter_while t ?from ~continue f =
  let a = ordered t in
  let n = Array.length a in
  let rec go i =
    if i < n then begin
      let e = Array.unsafe_get a i in
      if continue e.key then begin
        f e;
        go (i + 1)
      end
    end
  in
  go (match from with None -> 0 | Some from -> lower_bound a from)

(* The first position in [a] whose key is past [h] on [h]'s columns. *)
let past a h =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if compare_key_prefix (Array.unsafe_get a mid).key h 0 <= 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

let scan_range ?keep t ?lo ?hi f =
  let a = ordered t in
  let start = match lo with None -> 0 | Some lo -> lower_bound a lo in
  let stop = match hi with None -> Array.length a | Some h -> past a h in
  walk a start stop keep f

(* Does [key] start with [prefix], from column [i] on? *)
let rec has_prefix prefix key i =
  i >= Array.length prefix
  || i < Array.length key
     && Value.compare (Array.unsafe_get prefix i) (Array.unsafe_get key i) = 0
     && has_prefix prefix key (i + 1)

let scan_prefix t ~prefix f =
  iter_while t ~from:prefix ~continue:(fun key -> has_prefix prefix key 0) f

(* --- secondary index API --- *)

let create_index t ~name ~cols =
  if Hashtbl.mem t.indexes name then
    invalid_arg (Printf.sprintf "Table.create_index: index %s exists" name);
  let idx_cols =
    Array.of_list
      (List.map
         (fun c ->
           match Schema.col_index t.schema c with
           | Some i -> i
           | None ->
             invalid_arg (Printf.sprintf "Table.create_index: unknown column %s" c))
         cols)
  in
  if Array.length idx_cols = 0 then
    invalid_arg "Table.create_index: no columns";
  let idx = { idx_cols; idx_map = Key_map.empty } in
  scan t ~f:(idx_add idx);
  Hashtbl.replace t.indexes name idx

let index_count t = Hashtbl.length t.indexes

let index_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.indexes []
  |> List.sort Stdlib.compare

let index_cols t ~name =
  match Hashtbl.find_opt t.indexes name with
  | Some idx -> Some idx.idx_cols
  | None -> None

let index_lookup t ~name ~key =
  match Hashtbl.find_opt t.indexes name with
  | None -> invalid_arg (Printf.sprintf "Table.index_lookup: no index %s" name)
  | Some idx ->
    Option.value ~default:[] (Key_map.find_opt key idx.idx_map)
    |> List.filter (fun e -> not e.header.deleted)

let live_count t = t.live
let total_count t = t.index.count

(* Every pk-index entry that is not live is a tombstone, so a table
   with [count = live] has nothing to purge and skips the slot walk. *)
let purge_tombstones t ~before_cen =
  if t.index.count = t.live then 0
  else begin
    let victims =
      pk_fold t.index
        (fun e acc ->
          if e.header.Row_header.deleted && e.header.Row_header.cen < before_cen
          then e.key_str :: acc
          else acc)
        []
    in
    List.iter
      (fun key_str ->
        pk_remove_slot t.index (pk_slot t.index key_str (key_hash key_str)))
      victims;
    if victims <> [] then touch t;
    List.length victims
  end

(* The copy shares every entry's [data] with its source: an installed
   row array is never written in place (every writer installs a fresh
   one), so only the mutable parts, the entry record and its header,
   are copied. *)
let copy t =
  let index =
    pk_map t.index (fun e ->
        {
          key = e.key;
          key_str = e.key_str;
          data = e.data;
          header = Row_header.copy e.header;
        })
  in
  let fresh =
    {
      schema = t.schema;
      index;
      ordered = [||];
      ordered_built = false;
      temp = fresh_temp ();
      indexes = Hashtbl.create 4;
      live = t.live;
      version = 0;
      digest_cache = None;
    }
  in
  (* Replicate the index definitions, then fill every secondary index in
     a single pass in primary-key order (the order [create_index] adds
     rows in). That pass sorts the live rows, so the sorted array becomes
     the copy's ordered index; a table without secondary indexes leaves
     it unbuilt. *)
  Hashtbl.iter
    (fun name idx ->
      Hashtbl.replace fresh.indexes name
        { idx_cols = idx.idx_cols; idx_map = Key_map.empty })
    t.indexes;
  if Hashtbl.length fresh.indexes > 0 then begin
    let sorted = live_sorted fresh in
    Array.iter (indexes_add fresh) sorted;
    fresh.ordered <- sorted;
    fresh.ordered_built <- true
  end;
  fresh

let digest_entry enc e =
  let module E = Gg_util.Codec.Enc in
  E.string enc e.key_str;
  E.bool enc e.header.Row_header.deleted;
  E.zigzag enc e.header.Row_header.sen;
  E.zigzag enc e.header.Row_header.cen;
  Csn.encode enc e.header.Row_header.csn;
  if not e.header.Row_header.deleted then
    Array.iter (Value.encode enc) e.data

(* The stream is hashed in chunks of at least [digest_chunk_bytes], cut
   at row boundaries, so one small encoder serves the whole table. A
   chunk is 1 KiB plus at most one row, so with rows under 1 KiB it
   stays below the minor heap's 256-word allocation limit and even a
   copy of it would die young. [Enc.digest] hashes it in place, so
   nothing per chunk is copied, and the encoder stops growing at its
   largest chunk. *)
let digest_chunk_bytes = 1024

(* The convergence oracle digests every node's whole database once per
   epoch; tables the epoch never wrote (most of TPC-C's nine) hit the
   cache. Any mutation that escapes [touch] would poison it, which is
   why every header stamp outside this module must call {!touch} — the
   checker's convergence oracle doubles as the regression test.

   The canonical stream is the table name, then every entry in
   ascending [key_str] order. Each chunk after the first starts with
   the MD5 of the one before, so the last chunk's MD5 covers the whole
   stream. *)
let digest t =
  match t.digest_cache with
  | Some (v, d) when v = t.version -> d
  | _ ->
    let module E = Gg_util.Codec.Enc in
    let enc = E.create () in
    E.string enc t.schema.Schema.table_name;
    iter_sorted t (fun e ->
        digest_entry enc e;
        if E.length enc >= digest_chunk_bytes then begin
          let chained = E.digest enc in
          E.clear enc;
          E.raw enc chained
        end);
    let d = Digest.to_hex (E.digest enc) in
    t.digest_cache <- Some (t.version, d);
    d
