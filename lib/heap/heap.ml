module Ivec = Gcr_util.Ivec
module Obs = Gcr_obs.Obs

type t = {
  obs : Obs.t option;  (** event spine; region transitions are reported here *)
  mutable region_words : int;
  mutable regions : Region.t array;
  free_pool : Ivec.t;  (** indices of free regions (LIFO) *)
  store : Obj_model.store;  (** struct-of-arrays object store *)
  mutable live_count : int;
  mutable live_words : int;
  mutable used_words : int;
  space_used : int array;  (** words used, indexed by space tag *)
  space_regions : int array;  (** region count, indexed by space tag *)
  mutable epoch : int;
  mutable scratch_epoch : int;
  mutable words_allocated : int;
  mutable objects_allocated : int;
  mutable reserve : int;
  mutable history_digest : int;
      (** commutative fold over every allocation and pointer write (by
          birth serial, so id recycling cannot alias it).  Collectors never
          touch it: object moves keep their id and GCs do not write fields.
          Two runs with equal digests have performed the same multiset of
          mutations — each write folds in the value it overwrote, so
          same-slot writes in a different order digest differently — which
          makes the digest a collector-independent progress coordinate for
          differential oracles. *)
  mutable placed_words : int;  (** total size of the last [place_run]'s objects *)
  mutable placed_fields : int;  (** their total field count *)
}

let space_tag = function
  | Region.Free -> 0
  | Region.Eden -> 1
  | Region.Survivor -> 2
  | Region.Old -> 3

let create ?obs ~capacity_words ~region_words () =
  if region_words < Obj_model.header_words then invalid_arg "Heap.create: region too small";
  let n = capacity_words / region_words in
  if n < 2 then invalid_arg "Heap.create: need at least two regions";
  let regions = Array.init n (fun index -> Region.make ~index) in
  let free_pool = Ivec.make ~capacity:n in
  (* Pushed in reverse so that region 0 is taken first. *)
  for i = n - 1 downto 0 do
    Ivec.push free_pool i
  done;
  let space_regions = Array.make 4 0 in
  space_regions.(0) <- n;
  (match obs with
  | Some o -> Obs.heap_init o ~time:(Obs.now o) ~regions:n ~region_words
  | None -> ());
  {
    obs;
    region_words;
    regions;
    free_pool;
    store = Obj_model.create_store ();
    live_count = 0;
    live_words = 0;
    used_words = 0;
    space_used = Array.make 4 0;
    space_regions;
    epoch = 0;
    scratch_epoch = 0;
    words_allocated = 0;
    objects_allocated = 0;
    reserve = 0;
    history_digest = 0;
    placed_words = 0;
    placed_fields = 0;
  }

(* Rewind a used heap to the state [create] would produce for the given
   geometry, keeping the object store's and region vecs' grown capacities.
   Region records are reused where the new geometry overlaps the old;
   growth appends fresh records, shrink drops the tail.  The same
   [heap_init] event a fresh heap emits is re-emitted, so an observation
   spine fed by a warm run folds the identical event sequence.  Safe after
   aborted runs — every counter below is rewritten, none is assumed
   clean. *)
let reset t ~capacity_words ~region_words =
  if region_words < Obj_model.header_words then invalid_arg "Heap.reset: region too small";
  let n = capacity_words / region_words in
  if n < 2 then invalid_arg "Heap.reset: need at least two regions";
  t.region_words <- region_words;
  let old = Array.length t.regions in
  if n < old then t.regions <- Array.sub t.regions 0 n
  else if n > old then begin
    let grown =
      Array.init n (fun i -> if i < old then t.regions.(i) else Region.make ~index:i)
    in
    t.regions <- grown
  end;
  for i = 0 to min old n - 1 do
    ignore (Region.reset t.regions.(i))
  done;
  Ivec.clear t.free_pool;
  for i = n - 1 downto 0 do
    Ivec.push t.free_pool i
  done;
  Obj_model.reset_store t.store;
  t.live_count <- 0;
  t.live_words <- 0;
  t.used_words <- 0;
  Array.fill t.space_used 0 (Array.length t.space_used) 0;
  Array.fill t.space_regions 0 (Array.length t.space_regions) 0;
  t.space_regions.(0) <- n;
  t.epoch <- 0;
  t.scratch_epoch <- 0;
  t.words_allocated <- 0;
  t.objects_allocated <- 0;
  t.reserve <- 0;
  t.history_digest <- 0;
  t.placed_words <- 0;
  t.placed_fields <- 0;
  match t.obs with
  | Some o -> Obs.heap_init o ~time:(Obs.now o) ~regions:n ~region_words
  | None -> ()

(* Safepoint-only geometry change: resize the region array in place while
   objects stay live.  Growth appends fresh free regions; shrink can only
   drop a trailing run of FREE regions — region indices are baked into the
   object store, so any non-free region pins every index up to its own.
   The request is therefore clamped (never an error): the achieved
   capacity is returned, and a [limit-change] event is emitted iff the
   geometry actually moved. *)
let set_capacity t ~capacity_words ~cause_id =
  let requested = max 2 (capacity_words / t.region_words) in
  let old_n = Array.length t.regions in
  let n =
    if requested >= old_n then requested
    else begin
      (* highest non-free index pins the floor *)
      let hi = ref (-1) in
      for i = old_n - 1 downto 0 do
        if !hi < 0 && not (Region.space_equal t.regions.(i).Region.space Region.Free)
        then hi := i
      done;
      max requested (max 2 (!hi + 1))
    end
  in
  if n <> old_n then begin
    if n < old_n then begin
      (* every dropped region is free by construction of [n]; surviving
         pool entries keep their LIFO order *)
      t.regions <- Array.sub t.regions 0 n;
      Ivec.filter_in_place (fun i -> i < n) t.free_pool;
      t.space_regions.(0) <- t.space_regions.(0) - (old_n - n)
    end
    else begin
      let grown =
        Array.init n (fun i -> if i < old_n then t.regions.(i) else Region.make ~index:i)
      in
      t.regions <- grown;
      (* lowest fresh index on top of the pool, matching [create]'s order *)
      for i = n - 1 downto old_n do
        Ivec.push t.free_pool i
      done;
      t.space_regions.(0) <- t.space_regions.(0) + (n - old_n)
    end;
    match t.obs with
    | Some o ->
        Obs.limit_change o ~time:(Obs.now o) ~regions:n ~old_regions:old_n
          ~controller_id:cause_id
    | None -> ()
  end;
  n * t.region_words

let store t = t.store

let region_words t = t.region_words

let total_regions t = Array.length t.regions

let free_regions t = Ivec.length t.free_pool

let capacity_words t = total_regions t * t.region_words

let used_words t = t.used_words

let space_used_words t space = t.space_used.(space_tag space)

let region t i = t.regions.(i)

let iter_regions f t = Array.iter f t.regions

let regions_in_space t space =
  Array.fold_left
    (fun acc r -> if Region.space_equal r.Region.space space then r :: acc else acc)
    [] t.regions
  |> List.rev

let regions_in_space_count t space = t.space_regions.(space_tag space)

let is_live t id = Obj_model.is_live t.store id

let live_objects t = t.live_count

let live_words_exact t = t.live_words

(* {2 Delegating per-object accessors} *)

let obj_size t id = Obj_model.size t.store id

let obj_region t id = Obj_model.region t.store id

let obj_space t id = t.regions.(Obj_model.region t.store id).Region.space

let obj_age t id = Obj_model.age t.store id

let set_obj_age t id a = Obj_model.set_age t.store id a

let obj_nfields t id = Obj_model.nfields t.store id

let field t id i = Obj_model.field_get t.store id i

(* One mutation record hashed FNV-style, finished with an xorshift round so
   that summing records commutatively does not cancel their structure. *)
let[@inline] digest_mix a b c d =
  let fnv h v = (h lxor v) * 0x100000001B3 in
  let h = fnv (fnv (fnv (fnv 0x1505 a) b) c) d in
  let h = h lxor (h lsr 29) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

(* Digest by birth serial, never by id: ids are recycled, serials are not.
   A dead or out-of-range value (possible only if a collector wrongly freed
   a reachable object) still digests deterministically. *)
let[@inline] digest_serial store x =
  if Obj_model.is_null x then -1
  else if Obj_model.is_live store x then Obj_model.serial store x
  else -2 - x

let set_field t id i v =
  let store = t.store in
  t.history_digest <-
    t.history_digest
    + digest_mix (Obj_model.serial store id) i
        (digest_serial store (Obj_model.field_get store id i))
        (digest_serial store v);
  Obj_model.field_set store id i v

let iter_fields t id f = Obj_model.iter_fields t.store id f

let obj_remembered t id = Obj_model.remembered t.store id

let set_obj_remembered t id v = Obj_model.set_remembered t.store id v

let obj_serial t id = Obj_model.serial t.store id

let begin_mark_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

let current_epoch t = t.epoch

let is_marked t id = Obj_model.mark t.store id = t.epoch

let set_marked t id = Obj_model.set_mark t.store id t.epoch

let begin_scratch_epoch t =
  t.scratch_epoch <- t.scratch_epoch + 1;
  t.scratch_epoch

let current_scratch_epoch t = t.scratch_epoch

let is_scratch_marked t id = Obj_model.scratch t.store id = t.scratch_epoch

let set_scratch_marked t id = Obj_model.set_scratch t.store id t.scratch_epoch

let set_alloc_reserve t n =
  if n < 0 then invalid_arg "Heap.set_alloc_reserve: negative";
  t.reserve <- n

let alloc_reserve t = t.reserve

let note_transition t (r : Region.t) ~to_space =
  match t.obs with
  | None -> ()
  | Some o ->
      Obs.region_transition o ~time:(Obs.now o) ~index:r.Region.index
        ~from_space:(space_tag r.Region.space) ~to_space

let retag_region t (r : Region.t) space =
  note_transition t r ~to_space:(space_tag space);
  t.space_regions.(space_tag r.Region.space) <-
    t.space_regions.(space_tag r.Region.space) - 1;
  t.space_regions.(space_tag space) <- t.space_regions.(space_tag space) + 1;
  r.Region.space <- space

let take_free_region t ~space =
  let blocked_by_reserve =
    Region.space_equal space Region.Eden && Ivec.length t.free_pool <= t.reserve
  in
  if blocked_by_reserve || Ivec.is_empty t.free_pool then None
  else begin
    let idx = Ivec.pop t.free_pool in
    let r = t.regions.(idx) in
    assert (Region.space_equal r.space Region.Free);
    retag_region t r space;
    Some r
  end

let alloc_in_region t (r : Region.t) ~size ~nfields =
  if Region.space_equal r.space Region.Free then
    invalid_arg (Printf.sprintf "Heap.alloc_in_region: free region %d" r.index);
  if r.used_words + size > t.region_words then Obj_model.null
  else begin
    let id = Obj_model.alloc t.store ~size ~nfields ~region:r.index in
    r.used_words <- r.used_words + size;
    Ivec.push r.objects id;
    t.used_words <- t.used_words + size;
    t.space_used.(space_tag r.space) <- t.space_used.(space_tag r.space) + size;
    t.live_count <- t.live_count + 1;
    t.live_words <- t.live_words + size;
    t.words_allocated <- t.words_allocated + size;
    t.objects_allocated <- t.objects_allocated + 1;
    t.history_digest <-
      t.history_digest + digest_mix (Obj_model.serial t.store id) size nfields (-3);
    id
  end

let move_object t id (dst : Region.t) =
  if Region.space_equal dst.space Region.Free then invalid_arg "Heap.move_object: free region";
  let size = Obj_model.size t.store id in
  if dst.used_words + size > t.region_words then false
  else begin
    dst.used_words <- dst.used_words + size;
    Ivec.push dst.objects id;
    t.used_words <- t.used_words + size;
    t.space_used.(space_tag dst.space) <- t.space_used.(space_tag dst.space) + size;
    Obj_model.set_region t.store id dst.index;
    true
  end

let free_region_bookkeeping t (r : Region.t) =
  note_transition t r ~to_space:(space_tag Region.Free);
  t.used_words <- t.used_words - r.used_words;
  t.space_used.(space_tag r.space) <- t.space_used.(space_tag r.space) - r.used_words;
  t.space_regions.(space_tag r.space) <- t.space_regions.(space_tag r.space) - 1;
  t.space_regions.(space_tag Region.Free) <- t.space_regions.(space_tag Region.Free) + 1;
  ignore (Region.reset r);
  Ivec.push t.free_pool r.index

let release_region t (r : Region.t) =
  if Region.space_equal r.space Region.Free then invalid_arg "Heap.release_region: already free";
  (* Only objects whose storage is still here die with the region: evacuated
     objects have had [region] repointed elsewhere. *)
  let store = t.store in
  Ivec.iter
    (fun id ->
      if Obj_model.is_live store id && Obj_model.region store id = r.index then begin
        t.live_count <- t.live_count - 1;
        t.live_words <- t.live_words - Obj_model.size store id;
        Obj_model.free store id
      end)
    r.objects;
  free_region_bookkeeping t r

(* Both orders are the vec order and must stay so: the free order decides
   which ids and field extents later allocations recycle, and the survivor
   order decides where compaction places each object.  The first walk
   makes no call, so its locals stay in registers: it writes the survivors
   straight into [into]'s array, reserved for every resident up front, and
   counts the dead.  Only when there are any does a second walk, in the
   same order, free them.  Freeing an object changes no other object's
   liveness, home or mark, so the two walks see what one walk would. *)
let sweep_unmarked t (r : Region.t) ~into =
  let objects = r.objects in
  let n = Ivec.length objects in
  let src = Ivec.reserve objects 0 in
  let out = Ivec.reserve into n in
  let store = t.store in
  let flags = Obj_model.flags_plane store in
  let bound = Obj_model.id_bound store in
  let regions = Obj_model.region_plane store in
  let marks = Obj_model.mark_plane store in
  let epoch = t.epoch in
  let index = r.index in
  let len = ref (Ivec.length into) in
  let dead = ref 0 in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get src i in
    if Obj_model.live_in ~flags ~bound id && Array.unsafe_get regions id = index then
      if Array.unsafe_get marks id = epoch then begin
        Array.unsafe_set out !len id;
        incr len
      end
      else incr dead
  done;
  Ivec.set_length into !len;
  if !dead > 0 then
    for i = 0 to n - 1 do
      let id = Array.unsafe_get src i in
      if
        Obj_model.live_in ~flags ~bound id
        && Array.unsafe_get regions id = index
        && Array.unsafe_get marks id <> epoch
      then begin
        t.live_count <- t.live_count - 1;
        t.live_words <- t.live_words - Obj_model.size store id;
        Obj_model.free store id
      end
    done

(* Free one object in place, as RC reclamation does.  The region keeps its
   [used_words] (the garbage words are what fragmentation-driven evacuation
   later reclaims) and its [objects] vec keeps the stale id, so callers must
   run {!compact_region_objects} on every region they freed into before the
   pause ends — a recycled id re-allocated into the same region would
   otherwise alias the stale entry. *)
let free_object t id =
  t.live_count <- t.live_count - 1;
  t.live_words <- t.live_words - Obj_model.size t.store id;
  Obj_model.free t.store id

let compact_region_objects t (r : Region.t) =
  let store = t.store in
  Ivec.filter_in_place
    (fun id -> Obj_model.is_live store id && Obj_model.region store id = r.index)
    r.objects

let release_region_keep_objects t (r : Region.t) =
  if Region.space_equal r.space Region.Free then
    invalid_arg "Heap.release_region_keep_objects: already free";
  free_region_bookkeeping t r

let place_object = move_object

(* [move_object] over a run of survivors, with the destination's counters
   written once: the same checks in the same order, so the region's object
   order and every counter end as a loop of [place_object] calls leaves
   them.  The walk also sums the placed objects' field counts, so a
   compaction prices its slice without a second pass.  The planes and both
   vectors' arrays are read through locals, each survivor's new home is
   written through the region plane, and the placed ids go straight into
   the destination's object array.  The inner loop makes no call, so its
   locals stay in registers: it stops where that array is full, and the
   outer loop grows it, doubling as [Ivec.push] does. *)
let place_run t (dst : Region.t) objs ~pos ~stop =
  if Region.space_equal dst.space Region.Free then invalid_arg "Heap.move_object: free region";
  if pos < stop && (pos < 0 || stop > Ivec.length objs) then
    invalid_arg "Heap.place_run: run outside the vector";
  let store = t.store in
  let sizes = Obj_model.size_plane store in
  let nfields = Obj_model.nfields_plane store in
  let regions = Obj_model.region_plane store in
  let src = Ivec.reserve objs 0 in
  let index = dst.index in
  let limit = t.region_words in
  let objects = dst.objects in
  let used = ref dst.used_words in
  let fields = ref 0 in
  let i = ref pos in
  let fits = ref true in
  while !fits && !i < stop do
    let len = Ivec.length objects in
    let out = Ivec.reserve objects 1 in
    let room = Int.min stop (!i + Array.length out - len) in
    let first = !i in
    while !fits && !i < room do
      let id = Array.unsafe_get src !i in
      let size = Array.unsafe_get sizes id in
      if !used + size > limit then fits := false
      else begin
        used := !used + size;
        fields := !fields + Array.unsafe_get nfields id;
        Array.unsafe_set out (len + !i - first) id;
        Array.unsafe_set regions id index;
        incr i
      end
    done;
    Ivec.set_length objects (len + !i - first)
  done;
  let placed = !used - dst.used_words in
  dst.used_words <- !used;
  t.used_words <- t.used_words + placed;
  t.space_used.(space_tag dst.space) <- t.space_used.(space_tag dst.space) + placed;
  t.placed_words <- placed;
  t.placed_fields <- !fields;
  !i

let placed_words t = t.placed_words

let placed_fields t = t.placed_fields

let iter_resident_objects t (r : Region.t) f =
  let store = t.store in
  Ivec.iter
    (fun id -> if Obj_model.is_live store id && Obj_model.region store id = r.index then f id)
    r.objects

let words_allocated_total t = t.words_allocated

let objects_allocated_total t = t.objects_allocated

let history_digest t = t.history_digest

(* The visited set is the scratch mark slot under a fresh epoch — no
   per-call Hashtbl on the traversal itself; the result table is built only
   for the caller (tests and ground-truth checks). *)
let reachable_from t roots =
  ignore (begin_scratch_epoch t);
  let store = t.store in
  let seen = Hashtbl.create 1024 in
  let stack = Ivec.create () in
  let push id =
    if
      (not (Obj_model.is_null id))
      && Obj_model.is_live store id
      && not (is_scratch_marked t id)
    then begin
      set_scratch_marked t id;
      Hashtbl.add seen id ();
      Ivec.push stack id
    end
  in
  List.iter push roots;
  while not (Ivec.is_empty stack) do
    Obj_model.iter_fields store (Ivec.pop stack) push
  done;
  seen
