(** Simulated stable storage with crash semantics.

    PBFT treats replica memory as stable storage by assuming UPSes (§1);
    the paper argues an Internet voting service cannot, and wires SQLite's
    rollback journal to real disk instead. This module gives the
    simulation that disk: buffered writes live in a volatile overlay until
    [sync] makes them durable, and [crash] discards everything volatile.
    Write and sync latencies are surfaced as costs the owning node charges
    to its virtual CPU, so the ACID experiments (Fig. 5, §4.2) are
    disk-bound exactly as in the paper. *)

type t
(** One node's disk. *)

val create : ?write_latency_per_byte:float -> ?sync_latency:float -> unit -> t
(** Defaults model a 2011-era SATA disk with write-back cache:
    negligible buffered-write cost, ~1.3 ms to flush the cache. *)

type file

val open_file : t -> string -> file
(** Opens (creating if absent) the named file; reopening after a crash
    yields the durable image. *)

val exists : t -> string -> bool
val delete : t -> string -> unit
(** Deletion is durable immediately (models unlink + directory sync). *)

val size : file -> int
(** Current (volatile) size in bytes. *)

val read : file -> pos:int -> len:int -> Bytes.t -> unit
(** Copies [len] bytes at [pos], read through the volatile overlay, into
    the start of the caller's buffer. Raises [Invalid_argument] if
    [pos + len] exceeds the size. *)

val write : file -> pos:int -> string -> unit
(** Buffered write, extending the file if needed. *)

val truncate : file -> int -> unit

val sync : file -> unit
(** Make all buffered writes durable. *)

val sync_cost : t -> float
(** Virtual seconds a [sync] costs the caller. *)

val write_cost : t -> int -> float
(** Virtual seconds a buffered write of n bytes costs the caller. *)

val crash : t -> unit
(** Discard all volatile state on every file of this disk. *)

val sync_count : t -> int
val bytes_written : t -> int
