(** Vector-clock wire sizes (§III-A: "To alleviate these costs we adopt
    metadata compression").

    Two size models are provided:
    - {!raw_size}: fixed 8 bytes per entry (what a naive implementation
      ships);
    - {!size}: one zig-zag LEB128 varint per entry, each entry's value
      encoded as is (a delta against the all-zero clock).  Entries below 64
      take one byte, below 8192 two, and so on.

    The simulator never serializes a clock: the network layer charges these
    byte counts to account for message sizes faithfully. *)

val raw_size : Vclock.t -> int
(** Bytes of the uncompressed representation (8 per entry). *)

val size : Vclock.t -> int
(** Bytes of the varint representation: the sum of {!varint_size} over the
    entries. *)

val varint_size : int -> int
(** Bytes one value occupies under the zig-zag LEB128 encoding.  Shared
    with {!Mvstore}'s checkpoint-image size model, which prices at-rest
    delta clocks with the same encoding. *)
