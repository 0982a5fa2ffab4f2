(** B+-tree over pager pages: ordered map from byte-string keys to
    byte-string values.

    Keys compare bytewise, in [String.compare] order ({!Value.key_encode}
    makes that order meaningful for SQL values; row ids use fixed-width
    big-endian encoding). Leaves are chained for range scans. Deletion is
    lazy (no rebalancing, no merging): a page is freed only by {!drop}, so
    a leaf emptied by deletes stays on the chain and scans step over it.
    That is plenty for the workloads the evaluation runs and keeps the
    structure auditable.

    {b Page format.} Each node is encoded whole into one page, followed
    by zero padding (varints are 7 bits per byte, low group first):
    - leaf: byte [0], the next leaf's page as 4 little-endian bytes
      ([0] ends the chain), a varint entry count, then per entry a
      varint key length, the key, a varint value length, the value;
    - interior: byte [1], a varint separator count [s], per separator a
      varint length and its bytes, a varint child count ([s + 1]), and
      each child page as a varint. Child [i] holds the keys from
      separator [i-1] (inclusive) up to separator [i] (exclusive).

    A node splits in two at its entry-count midpoint when its encoding
    would exceed [page_size - 256] bytes; if large entries bunched on one
    side would leave a half too big for a page, the cut moves to the
    nearest entry where both halves fit.

    {b In-place access.} Searches and scans read this encoding directly
    from the pager's borrowed page buffer: they pick an interior node's
    child and find a leaf entry without decoding the node, and copy out
    only a returned value or the pairs handed to an {!iter} callback.
    Inserts and deletes build the new image in one page-sized buffer from
    byte ranges of the old one. Every read is bounds-checked: a damaged
    page (bad tag, overlong varint, a length past the page end, a child
    index or page pointer out of range, a leaf chain that reaches an
    interior node or loops) raises {!Pager.Corrupt}.

    An entry must fit in a page: keys+values above ~1.9 KB raise
    [Invalid_argument] (no overflow chains; DESIGN.md notes the
    limitation). *)

type t

val create : Pager.t -> t
(** Allocate an empty tree (one leaf page). Must be inside a transaction. *)

val open_tree : Pager.t -> root:int -> t

val root : t -> int
(** Current root page; the owner must re-persist it after mutations (root
    splits change it). *)

val find : t -> string -> string option
val insert : t -> key:string -> value:string -> unit
(** Inserts or replaces. *)

val delete : t -> string -> bool
(** True if the key existed. *)

val iter : t -> ?from:string -> ?upto:string -> (string -> string -> bool) -> unit
(** In-order traversal starting at the first key ≥ [from] (or the
    smallest); stops when the callback returns false or the next key
    exceeds the inclusive upper bound [upto]. Lazily-emptied leaves on
    the chain are stepped over without charging a page touch. A leaf's
    pairs are copied out before any callback runs, so callbacks may read
    (and write) the tree. *)

val count : t -> int
val drop : t -> unit
(** Free every page of the tree. *)
