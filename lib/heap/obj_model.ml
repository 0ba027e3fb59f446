type id = int

let null = 0

let is_null id = id = null

let header_words = 2

let fields_capacity ~size =
  let cap = size - header_words in
  if cap < 0 then 0 else cap

(* Struct-of-arrays object store.

   Every per-object attribute lives in its own flat [int array] indexed by
   object id, and all reference fields share one arena of object ids.  The
   mark loop that dominates every collector then walks dense int arrays
   instead of chasing per-object record pointers through the host heap, and
   allocating a simulated object writes a handful of array slots instead of
   allocating host memory.

   Dead ids are recycled through a LIFO free stack: a workload that churns
   millions of short-lived objects keeps the metadata arrays sized to the
   peak live population instead of growing (and re-copying) them with the
   total allocation count, and the hot ids stay dense in cache.  Recycling
   is safe because nothing holds a dead id: roots and heap references keep
   their targets live by construction, and every path that frees an object
   (region release, compaction sweep) also clears or rebuilds the region's
   object vec in the same pause, so a reused id can never alias a stale
   entry.  [alloc] rewrites every per-id attribute, so a recycled id is
   indistinguishable from a fresh one.  Field extents in the arena are
   recycled the same way: when an object dies its extent is pushed onto an
   intrusive free list for its exact field count (the next-pointer is
   stored in the extent's first slot), and a later allocation with the same
   field count pops it.  Extents popped from a free list are re-zeroed
   before handing out; extents carved from the bump frontier are already
   [null] because fresh arena storage is zero-initialised. *)

type store = {
  mutable size : int array;  (** words, header included *)
  mutable region : int array;  (** owning region index *)
  mutable age : int array;
  mutable mark : int array;  (** epoch of the last mark; -1 when fresh *)
  mutable scratch : int array;  (** second, independent mark slot *)
  mutable flags : int array;  (** bit 0 live, bit 1 remembered *)
  mutable foff : int array;  (** offset of the field extent in [arena] *)
  mutable nfields : int array;
  mutable serial : int array;
      (** birth serial: strictly increasing across all allocations, never
          reused.  Ids are recycled LIFO, so a held id may come to name a
          different object; the serial is the stable identity that
          disambiguates (deferred RC work, cross-collector live sets). *)
  mutable next_serial : int;
  mutable count : int;  (** next fresh id; freed ids are recycled LIFO first *)
  mutable arena : int array;  (** all reference fields, as object ids *)
  mutable arena_top : int;  (** bump frontier *)
  mutable free_heads : int array;
      (** head of the free-extent list per exact field count; -1 when
          empty.  The next pointer of a free extent is stored in its first
          arena slot. *)
  mutable free_ids : int array;  (** LIFO stack of recycled ids *)
  mutable free_ids_len : int;
}

let initial_capacity = 1024

let initial_arena = 4096

let create_store () =
  let s =
    {
      size = Array.make initial_capacity 0;
      region = Array.make initial_capacity (-1);
      age = Array.make initial_capacity 0;
      mark = Array.make initial_capacity (-1);
      scratch = Array.make initial_capacity (-1);
      flags = Array.make initial_capacity 0;
      foff = Array.make initial_capacity 0;
      nfields = Array.make initial_capacity 0;
      serial = Array.make initial_capacity 0;
      next_serial = 0;
      count = 0;
      arena = Array.make initial_arena null;
      arena_top = 0;
      free_heads = Array.make 8 (-1);
      free_ids = Array.make 256 0;
      free_ids_len = 0;
    }
  in
  (* id 0 is the null reference: a permanently dead header-only slot *)
  s.size.(0) <- header_words;
  s.count <- 1;
  s

(* Rewind the store to its post-[create_store] state while keeping every
   array at its grown capacity — the amortisation the warm execution path
   is built on.  Two invariants make this sound without touching the per-id
   attribute planes: (a) [alloc] rewrites every attribute of any id it
   hands out, so stale values above [count] are unreachable; (b) arena
   extents carved from the bump frontier rely on fresh storage reading as
   [null] (see [take_extent]), so the used prefix — which holds both live
   fields and free-list next-pointers — must be re-zeroed before the
   frontier rewinds. *)
let reset_store s =
  Array.fill s.arena 0 s.arena_top null;
  s.arena_top <- 0;
  Array.fill s.free_heads 0 (Array.length s.free_heads) (-1);
  s.free_ids_len <- 0;
  s.next_serial <- 0;
  s.count <- 1;
  s.size.(0) <- header_words

let grow_meta s =
  let old = Array.length s.size in
  let cap = 2 * old in
  let grow ~fill a =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  s.size <- grow ~fill:0 s.size;
  s.region <- grow ~fill:(-1) s.region;
  s.age <- grow ~fill:0 s.age;
  s.mark <- grow ~fill:(-1) s.mark;
  s.scratch <- grow ~fill:(-1) s.scratch;
  s.flags <- grow ~fill:0 s.flags;
  s.foff <- grow ~fill:0 s.foff;
  s.nfields <- grow ~fill:0 s.nfields;
  s.serial <- grow ~fill:0 s.serial

let grow_arena s needed =
  let cap = ref (2 * Array.length s.arena) in
  while !cap < needed do
    cap := 2 * !cap
  done;
  let b = Array.make !cap null in
  Array.blit s.arena 0 b 0 s.arena_top;
  s.arena <- b

(* Take a field extent: exact-size free list first, bump frontier
   otherwise.  Zero-field objects get offset 0 and cost no arena words. *)
let take_extent s nf =
  if nf < Array.length s.free_heads && s.free_heads.(nf) >= 0 then begin
    let off = s.free_heads.(nf) in
    s.free_heads.(nf) <- s.arena.(off);
    Array.fill s.arena off nf null;
    off
  end
  else begin
    if s.arena_top + nf > Array.length s.arena then grow_arena s (s.arena_top + nf);
    let off = s.arena_top in
    s.arena_top <- off + nf;
    off
  end

let alloc s ~size ~nfields ~region =
  if size < header_words then invalid_arg "Obj_model.alloc: size below header";
  if nfields < 0 || nfields > fields_capacity ~size then
    invalid_arg "Obj_model.alloc: field count does not fit";
  let id =
    if s.free_ids_len > 0 then begin
      let n = s.free_ids_len - 1 in
      s.free_ids_len <- n;
      Array.unsafe_get s.free_ids n
    end
    else begin
      let id = s.count in
      if id = Array.length s.size then grow_meta s;
      s.count <- id + 1;
      id
    end
  in
  s.size.(id) <- size;
  s.region.(id) <- region;
  s.age.(id) <- 0;
  s.mark.(id) <- -1;
  s.scratch.(id) <- -1;
  s.flags.(id) <- 1;
  s.nfields.(id) <- nfields;
  s.serial.(id) <- s.next_serial;
  s.next_serial <- s.next_serial + 1;
  s.foff.(id) <- (if nfields = 0 then 0 else take_extent s nfields);
  id

let grow_free_heads s nf =
  let cap = ref (2 * Array.length s.free_heads) in
  while !cap <= nf do
    cap := 2 * !cap
  done;
  let b = Array.make !cap (-1) in
  Array.blit s.free_heads 0 b 0 (Array.length s.free_heads);
  s.free_heads <- b

let free s id =
  s.flags.(id) <- 0;
  let nf = s.nfields.(id) in
  if nf > 0 then begin
    if nf >= Array.length s.free_heads then grow_free_heads s nf;
    let off = s.foff.(id) in
    s.arena.(off) <- s.free_heads.(nf);
    s.free_heads.(nf) <- off
  end;
  if s.free_ids_len = Array.length s.free_ids then begin
    let b = Array.make (2 * s.free_ids_len) 0 in
    Array.blit s.free_ids 0 b 0 s.free_ids_len;
    s.free_ids <- b
  end;
  Array.unsafe_set s.free_ids s.free_ids_len id;
  s.free_ids_len <- s.free_ids_len + 1

(* Accessors below [is_live] assume a live id (see the interface); the
   range check in [is_live] is the only guard, so the hot-path reads and
   writes skip the per-access bounds check.  [id < count <= length] holds
   for every live id because ids are handed out monotonically. *)

let[@inline] live_in ~flags ~bound id =
  id > 0 && id < bound && Array.unsafe_get flags id land 1 <> 0

let[@inline] is_live s id = live_in ~flags:s.flags ~bound:s.count id

let[@inline] size s id = Array.unsafe_get s.size id

let[@inline] region s id = Array.unsafe_get s.region id

let[@inline] set_region s id r = Array.unsafe_set s.region id r

let[@inline] age s id = Array.unsafe_get s.age id

let[@inline] set_age s id a = Array.unsafe_set s.age id a

let[@inline] mark s id = Array.unsafe_get s.mark id

let[@inline] set_mark s id m = Array.unsafe_set s.mark id m

let[@inline] scratch s id = Array.unsafe_get s.scratch id

let[@inline] set_scratch s id m = Array.unsafe_set s.scratch id m

let[@inline] serial s id = Array.unsafe_get s.serial id

let[@inline] remembered s id = Array.unsafe_get s.flags id land 2 <> 0

let[@inline] set_remembered s id v =
  let f = Array.unsafe_get s.flags id in
  Array.unsafe_set s.flags id (if v then f lor 2 else f land lnot 2)

let[@inline] nfields s id = Array.unsafe_get s.nfields id

let[@inline] field_get s id i = Array.unsafe_get s.arena (Array.unsafe_get s.foff id + i)

let[@inline] field_set s id i v = Array.unsafe_set s.arena (Array.unsafe_get s.foff id + i) v

let field_extent s id = (s.foff.(id), s.nfields.(id))

(* The planes themselves, for a loop that hoists them into locals.  Only
   [grow_meta] and [grow_arena] replace a plane, and only [alloc] calls
   them: [free] writes the flags and arena planes in place. *)

let[@inline] id_bound s = s.count

let[@inline] flags_plane s = s.flags

let[@inline] size_plane s = s.size

let[@inline] region_plane s = s.region

let[@inline] mark_plane s = s.mark

let[@inline] scratch_plane s = s.scratch

let[@inline] nfields_plane s = s.nfields

let[@inline] foff_plane s = s.foff

let[@inline] arena_plane s = s.arena

let arena_used s = s.arena_top

let iter_fields s id f =
  let base = Array.unsafe_get s.foff id in
  let nf = Array.unsafe_get s.nfields id in
  for i = 0 to nf - 1 do
    f (Array.unsafe_get s.arena (base + i))
  done

let exists_fields s id f =
  let base = Array.unsafe_get s.foff id in
  let nf = Array.unsafe_get s.nfields id in
  let rec loop i = i < nf && (f (Array.unsafe_get s.arena (base + i)) || loop (i + 1)) in
  loop 0
