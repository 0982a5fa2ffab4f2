(** MAC authenticators, the PBFT optimization that replaces one public-key
    signature with a vector of per-replica MACs.

    A client (or replica) that shares a symmetric session key with each of
    the [n] replicas authenticates a message by attaching one 8-byte tag
    per replica. As in Castro–Liskov, the tags cover the message's 32-byte
    auth digest ([Pbft.Message.auth_digest]), so the sender hashes the
    payload once (a big request or reply body once per cluster) and each
    tag is an HMAC over 32 bytes. Each replica verifies only its own
    entry. The paper's §2.3 documents the robustness consequence: the
    tags are *transient* state, so a restarted replica cannot validate
    logged requests until the periodic authenticator rebroadcast reaches
    it — we reproduce that behaviour in the PBFT layer. *)

type t = { tags : (int * string) list }
(** Association from replica id to its 8-byte tag. *)

val compute : keys:(int * Mac.key) list -> string -> t
(** [compute ~keys d] builds the tag vector over [d] (an auth digest in
    the protocol); [keys] maps replica id to the session key shared with
    that replica. *)

val check : key:Mac.key -> replica:int -> string -> t -> bool
[@@trust.sanitizer
  "authenticator entry check: true vouches that this replica's tag verifies the auth digest (Message.auth_digest)"]
(** [check ~key ~replica d t] verifies the tag addressed to [replica]
    over [d]; false if the entry is missing or does not verify. The
    caller recomputes [d] from the payload it received, so a payload that
    differs in any byte fails. *)

val wire_size : t -> int
(** Bytes this authenticator occupies on the wire. *)

val encode : Util.Codec.W.t -> t -> unit

val decode : Util.Codec.R.t -> t
[@@trust.source "authenticator vector parsed from wire bytes"]
