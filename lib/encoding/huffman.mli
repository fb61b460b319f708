(** Canonical Huffman code tables for DEFLATE.

    Both directions are derived from code {e lengths} only, as RFC 1951
    specifies: codes of the same length are assigned in symbol order. *)

type decoder

val decoder_of_lengths : int array -> (decoder, string) result
(** Build a decoder from per-symbol code lengths (0 = unused).
    [Error _] if the lengths describe an over- or under-subscribed code
    (a single-symbol code is accepted, as zlib does). *)

val read_symbol : decoder -> Bitstream.Reader.t -> int
(** Decode one symbol. @raise Failure on an invalid code or exhausted
    input. *)

val codes_of_lengths : int array -> int array
(** Canonical code for each symbol (meaningless where length is 0). *)

val fixed_literal_lengths : unit -> int array
(** The fixed literal/length code of RFC 1951 §3.2.6 (288 symbols). *)

val fixed_distance_lengths : unit -> int array
(** The fixed distance code (32 symbols, all length 5). *)
