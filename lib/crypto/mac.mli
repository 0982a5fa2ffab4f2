(** Short message-authentication codes in the style of the UMAC32 tags the
    PBFT code base uses: 8-byte truncations of HMAC-SHA256. Authenticators
    (one such tag per replica) are built from these. The protocol layer
    tags a message's 32-byte auth digest ([Pbft.Message.auth_digest]),
    not the payload itself, so each payload is hashed once however many
    tags it carries. *)

type key = string
(** Symmetric key; any length (hashed into the HMAC block). *)

val tag_size : int
(** 8 bytes. *)

val compute : key:key -> string -> string
(** [compute ~key msg] is the 8-byte tag. *)

val verify : key:key -> string -> tag:string -> bool
[@@trust.sanitizer
  "MAC tag check: true vouches that the tagged bytes (an auth digest, Message.auth_digest) were keyed by the peer"]

val fresh_key : Util.Rng.t -> key
(** 16 random bytes. *)
