(* Page format. A node is serialized whole into one page and zero-padded:

     leaf      u8 0 | u32le next | varint n | n x (varint klen, key, varint vlen, value)
     interior  u8 1 | varint s | s x (varint len, separator) | varint c | c x varint child

   [next] chains the leaves left to right (0 ends the chain); an interior
   node with s separators has s + 1 children. Reads walk this encoding in
   place over the pager's borrowed page: only a returned value and the
   pairs handed to [iter] callbacks are copied out. Writes build each new
   image in one page-sized buffer from byte ranges of the old one. A node
   splits once its encoding would pass [max_node_bytes], at its
   entry-count midpoint (see [split_point]), so fill factor adapts to
   entry sizes. *)

type t = { pager : Pager.t; mutable root_page : int }

let page_size = Pager.page_size
let max_node_bytes = page_size - 256
let max_entry_bytes = max_node_bytes / 2
let corrupt what = raise (Pager.Corrupt ("btree " ^ what))

(* --- bounds-checked, allocation-free reads over a page image --- *)

type cursor = { buf : Bytes.t; mutable pos : int }

let u8 c =
  if c.pos >= Bytes.length c.buf then corrupt "node truncated";
  let b = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  b

(* At most 9 bytes and never negative: the Util.Codec.R.varint rule. *)
let rec varint_from c shift acc =
  if shift > 56 then corrupt "varint overrun";
  let b = u8 c in
  if shift = 56 && b > 0x3f then corrupt "varint overrun";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from c (shift + 7) acc

let varint c = varint_from c 0 0

(* An item count: every item takes at least a byte, so a count larger
   than the rest of the page is damage, caught before any loop or
   allocation sized by it. *)
let items c =
  let n = varint c in
  if n > Bytes.length c.buf - c.pos then corrupt "count past page end";
  n

let u32 c =
  if c.pos + 4 > Bytes.length c.buf then corrupt "node truncated";
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) land 0xffff_ffff in
  c.pos <- c.pos + 4;
  v

(* Step over a length-prefixed string and return where its bytes start;
   they end at the cursor. *)
let lstr c =
  let n = varint c in
  if n > Bytes.length c.buf - c.pos then corrupt "cell past page end";
  let start = c.pos in
  c.pos <- start + n;
  start

let skip_lstr c = ignore (lstr c)
let skip_varint c = ignore (varint c)

let skip_cell c =
  skip_lstr c;
  skip_lstr c

(* [String.compare key] against the [len] bytes at [off]. *)
let rec compare_from key buf off len i =
  if i = String.length key || i = len then Int.compare (String.length key) len
  else begin
    let d = Char.code key.[i] - Char.code (Bytes.get buf (off + i)) in
    if d <> 0 then d else compare_from key buf off len (i + 1)
  end

let compare_key key buf off len = compare_from key buf off len 0

(* Cursor just past the tag; [true] for a leaf. *)
let is_leaf c =
  match u8 c with 0 -> true | 1 -> false | _ -> corrupt "node tag"

let check_page t page =
  if page < 1 || page >= Pager.page_count t.pager then corrupt "page pointer out of range";
  page

(* A descent or chain walk longer than the file has pages is a cycle. *)
let deeper t depth =
  if depth >= Pager.page_count t.pager then corrupt "page cycle";
  depth + 1

(* Child slot for [key] in the interior node at the cursor (just past the
   tag): the first separator > key goes left of it; equal keys descend
   right (separators are copied-up leaf keys, the right child holds keys
   >= sep). [None] picks the leftmost child. Leaves the cursor at the
   child count. *)
let child_slot c key =
  let s = items c in
  let slot = ref s in
  for i = 0 to s - 1 do
    let sep = lstr c in
    if !slot = s then
      match key with
      | Some k when compare_key k c.buf sep (c.pos - sep) >= 0 -> ()
      | _ -> slot := i
  done;
  !slot

(* The child in [slot]; the cursor must be at the child count. *)
let child_at t c slot =
  let n = items c in
  if slot >= n then corrupt "child index";
  for _ = 1 to slot do
    skip_varint c
  done;
  check_page t (varint c)

(* --- page images --- *)

(* A byte range to copy into a new image: a run of cells of an old page,
   or a freshly encoded cell. *)
type part = { src : Bytes.t; off : int; len : int }

let varint_size v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let put_varint img pos v =
  let pos = ref pos and v = ref v in
  while !v >= 0x80 do
    Bytes.set img !pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.set img !pos (Char.unsafe_chr !v);
  !pos + 1

(* A freshly encoded cell, written by the codec that defines the format. *)
let encoded write =
  let w = Util.Codec.W.create ~capacity:16 () in
  write w;
  let b = Bytes.unsafe_of_string (Util.Codec.W.contents w) in
  { src = b; off = 0; len = Bytes.length b }

let entry_cell key value =
  encoded (fun w ->
      Util.Codec.W.lstring w key;
      Util.Codec.W.lstring w value)

let sep_cell sep = encoded (fun w -> Util.Codec.W.lstring w sep)
let child_cell page = encoded (fun w -> Util.Codec.W.varint w page)

(* The first length-prefixed string of a part: a cell's key or a
   separator. *)
let part_key p =
  let c = { buf = p.src; pos = p.off } in
  let k = lstr c in
  Bytes.sub_string p.src k (c.pos - k)

(* The [n] consecutive items starting at the cursor, one part each. *)
let parts_at c n skip =
  Array.init n (fun _ ->
      let off = c.pos in
      skip c;
      { src = c.buf; off; len = c.pos - off })

let splice parts i ~drop p =
  Array.concat
    [ Array.sub parts 0 i; [| p |]; Array.sub parts (i + drop) (Array.length parts - i - drop) ]

let range parts lo hi = Array.to_list (Array.sub parts lo (hi - lo))
let parts_len parts = List.fold_left (fun n p -> n + p.len) 0 parts
let leaf_size count cells = 5 + varint_size count + parts_len cells

let interior_size ((ns, seps), (nk, kids)) =
  1 + varint_size ns + parts_len seps + varint_size nk + parts_len kids

let put_parts img pos parts =
  List.fold_left
    (fun pos p ->
      Bytes.blit p.src p.off img pos p.len;
      pos + p.len)
    pos parts

let blank size =
  if size > page_size then corrupt "node overflow";
  Bytes.make page_size '\000'

let leaf_image ~next (count, cells) =
  let img = blank (leaf_size count cells) in
  (* The leaf tag is the blank page's zero first byte. *)
  Bytes.set_int32_le img 1 (Int32.of_int next);
  ignore (put_parts img (put_varint img 5 count) cells);
  img

let interior_image (((ns, seps), (nk, kids)) as node) =
  let img = blank (interior_size node) in
  Bytes.set img 0 '\001';
  let pos = put_parts img (put_varint img 1 ns) seps in
  ignore (put_parts img (put_varint img pos nk) kids);
  img

(* Where to cut an overfull node: at the entry-count midpoint [mid], or,
   when large entries bunched on one side would leave a half too big for
   its page, at the nearest cut in [lo, hi] where both halves fit. *)
let split_point mid ~lo ~hi fits =
  let rec go d =
    if mid - d < lo && mid + d > hi then corrupt "node overflow"
    else if mid - d >= lo && fits (mid - d) then mid - d
    else if mid + d <= hi && fits (mid + d) then mid + d
    else go (d + 1)
  in
  go 0

(* [img] is never touched again, so it becomes the string uncopied. *)
let store t page img = Pager.write_page t.pager page (Bytes.unsafe_to_string img)

let create pager =
  let page = Pager.allocate_page pager in
  let t = { pager; root_page = page } in
  store t page (leaf_image ~next:0 (0, []));
  t

let open_tree pager ~root = { pager; root_page = root }
let root t = t.root_page

(* --- search --- *)

(* The value stored under [key] in the leaf at the cursor (past the
   header), scanning until the keys pass it. *)
let leaf_find c key n =
  let found = ref None and i = ref 0 in
  while !i < n do
    let k = lstr c in
    let klen = c.pos - k in
    let v = lstr c in
    let cmp = compare_key key c.buf k klen in
    if cmp = 0 then found := Some (Bytes.sub_string c.buf v (c.pos - v));
    i := if cmp <= 0 then n else !i + 1
  done;
  !found

let rec find_in t page key depth =
  let c = { buf = Pager.read_page t.pager page; pos = 0 } in
  if is_leaf c then begin
    ignore (u32 c);
    leaf_find c key (items c)
  end
  else begin
    let slot = child_slot c (Some key) in
    find_in t (child_at t c slot) key (deeper t depth)
  end

let find t key = find_in t t.root_page key 0

(* Where [key] goes in the leaf at the cursor (past the header): the
   offset of its cell if present (or of the first larger key, else the end
   of the cells), the offset just past the cell it replaces (= [at] when
   absent), the index of [at], and the end of the cells. *)
type slot = { at : int; after : int; index : int; used : int }

let leaf_slot c key n =
  let at = ref (-1) and after = ref 0 and index = ref n in
  for i = 0 to n - 1 do
    let start = c.pos in
    let k = lstr c in
    let klen = c.pos - k in
    skip_lstr c;
    if !at < 0 then begin
      let cmp = compare_key key c.buf k klen in
      if cmp <= 0 then begin
        at := start;
        after := if cmp = 0 then c.pos else start;
        index := i
      end
    end
  done;
  if !at < 0 then { at = c.pos; after = c.pos; index = n; used = c.pos }
  else { at = !at; after = !after; index = !index; used = c.pos }

(* The leaf's cells (from [cells] on) with [cell], if any, in place of
   the bytes [s] covers. *)
let around buf ~cells s cell =
  let suffix = { src = buf; off = s.after; len = s.used - s.after } in
  { src = buf; off = cells; len = s.at - cells }
  :: (match cell with Some c -> [ c; suffix ] | None -> [ suffix ])

(* Insert; returns Some (separator, right page) if the node split. *)
let leaf_insert t page buf key value =
  let c = { buf; pos = 1 } in
  let next = u32 c in
  let n = items c in
  let cells = c.pos in
  let s = leaf_slot c key n in
  let replaced = s.after > s.at in
  let count = if replaced then n else n + 1 in
  let cell = entry_cell key value in
  let spliced = around buf ~cells s (Some cell) in
  if leaf_size count spliced <= max_node_bytes then begin
    store t page (leaf_image ~next (count, spliced));
    None
  end
  else begin
    (* Split in half by entry count. Both images are built before the
       allocation, which may read the freelist page over [buf]. *)
    let old = parts_at { buf; pos = cells } n skip_cell in
    let all = splice old s.index ~drop:(n + 1 - count) cell in
    let half lo hi = (hi - lo, range all lo hi) in
    let mid =
      split_point (count / 2) ~lo:1 ~hi:(count - 1) (fun m ->
          leaf_size m (range all 0 m) <= page_size
          && leaf_size (count - m) (range all m count) <= page_size)
    in
    let sep = part_key all.(mid) in
    let left = leaf_image ~next:0 (half 0 mid) in
    let right = leaf_image ~next (half mid count) in
    let right_page = Pager.allocate_page t.pager in
    Bytes.set_int32_le left 1 (Int32.of_int right_page);
    store t right_page right;
    store t page left;
    Some (sep, right_page)
  end

(* Add [sep] and [right_page] after child [slot] of the interior node in
   [buf] (the caller's own copy). *)
let interior_insert t page buf slot sep right_page =
  let c = { buf; pos = 1 } in
  let ns = items c in
  let seps = splice (parts_at c ns skip_lstr) slot ~drop:0 (sep_cell sep) in
  let nk = items c in
  let kids = splice (parts_at c nk skip_varint) (slot + 1) ~drop:0 (child_cell right_page) in
  let ns = ns + 1 and nk = nk + 1 in
  let node = ((ns, Array.to_list seps), (nk, Array.to_list kids)) in
  if interior_size node <= max_node_bytes then begin
    store t page (interior_image node);
    None
  end
  else begin
    (* Separator [mid] moves up; the halves keep the ones either side. *)
    let left m = ((m, range seps 0 m), (m + 1, range kids 0 (m + 1))) in
    let right m = ((ns - m - 1, range seps (m + 1) ns), (nk - m - 1, range kids (m + 1) nk)) in
    let fits node = interior_size node <= page_size in
    let mid = split_point (ns / 2) ~lo:0 ~hi:(ns - 1) (fun m -> fits (left m) && fits (right m)) in
    let promoted = part_key seps.(mid) in
    let left = interior_image (left mid) and right = interior_image (right mid) in
    let right_pg = Pager.allocate_page t.pager in
    store t right_pg right;
    store t page left;
    Some (promoted, right_pg)
  end

let rec insert_in t page key value depth =
  let buf = Pager.read_page t.pager page in
  let c = { buf; pos = 0 } in
  if is_leaf c then leaf_insert t page buf key value
  else begin
    let slot = child_slot c (Some key) in
    let child = child_at t c slot in
    (* The recursion reads other pages over the borrowed image. *)
    let own = Bytes.copy buf in
    match insert_in t child key value (deeper t depth) with
    | None -> None
    | Some (sep, right_page) -> interior_insert t page own slot sep right_page
  end

let insert t ~key ~value =
  if String.length key + String.length value > max_entry_bytes then
    invalid_arg "Btree.insert: entry too large (no overflow pages)";
  match insert_in t t.root_page key value 0 with
  | None -> ()
  | Some (sep, right_page) ->
    let new_root = Pager.allocate_page t.pager in
    store t new_root
      (interior_image ((1, [ sep_cell sep ]), (2, [ child_cell t.root_page; child_cell right_page ])));
    t.root_page <- new_root

let rec delete_in t page key depth =
  let buf = Pager.read_page t.pager page in
  let c = { buf; pos = 0 } in
  if is_leaf c then begin
    let next = u32 c in
    let n = items c in
    let cells = c.pos in
    let s = leaf_slot c key n in
    if s.after > s.at then begin
      store t page (leaf_image ~next (n - 1, around buf ~cells s None));
      true
    end
    else false
  end
  else begin
    let slot = child_slot c (Some key) in
    delete_in t (child_at t c slot) key (deeper t depth)
  end

let delete t key = delete_in t t.root_page key 0

(* Descend to the leaf that would hold [key] (or the leftmost). Interior
   pages are genuine traversal work and count as touches; the leaf itself
   is charged by the caller only if it yields entries — deletion is lazy,
   so long-lived trees accumulate empty leaves that a range scan must
   step over but should not be billed for. *)
let rec descend_leaf t page key depth =
  let c = { buf = Pager.read_page_quiet t.pager page; pos = 0 } in
  if is_leaf c then page
  else begin
    Pager.touch_page t.pager page;
    let slot = child_slot c key in
    descend_leaf t (child_at t c slot) key (deeper t depth)
  end

let iter t ?from ?upto f =
  let rec walk page steps =
    if page <> 0 then begin
      let c = { buf = Pager.read_page_quiet t.pager page; pos = 0 } in
      if not (is_leaf c) then corrupt "leaf chain reached interior node";
      let next = u32 c in
      let n = items c in
      if n > 0 then Pager.touch_page t.pager page;
      (* Copy the leaf's pairs in [from, upto] out of the borrowed page
         before any callback runs: callbacks read other pages. A key past
         [upto] ends the walk after them. *)
      let pairs = ref [] and past = ref false and i = ref 0 in
      while !i < n do
        let k = lstr c in
        let klen = c.pos - k in
        let v = lstr c in
        (match (from, upto) with
        | Some lo, _ when compare_key lo c.buf k klen > 0 -> ()
        | _, Some hi when compare_key hi c.buf k klen < 0 -> past := true
        | _ ->
          let pair = (Bytes.sub_string c.buf k klen, Bytes.sub_string c.buf v (c.pos - v)) in
          pairs := pair :: !pairs);
        i := if !past then n else !i + 1
      done;
      if List.for_all (fun (k, v) -> f k v) (List.rev !pairs) && not !past then
        walk (if next = 0 then 0 else check_page t next) (deeper t steps)
    end
  in
  walk (descend_leaf t t.root_page from 0) 0

let count t =
  let n = ref 0 in
  iter t (fun _ _ ->
      incr n;
      true);
  !n

let rec free_subtree t page depth =
  let c = { buf = Pager.read_page t.pager page; pos = 0 } in
  if not (is_leaf c) then begin
    ignore (child_slot c None);
    let n = items c in
    let kids = List.init n (fun _ -> check_page t (varint c)) in
    List.iter (fun kid -> free_subtree t kid (deeper t depth)) kids
  end;
  Pager.free_page t.pager page

let drop t = free_subtree t t.root_page 0
