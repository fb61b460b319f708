(** Commands that recovery must never execute (paper §III-B2): network,
    timing, process, persistence and anti-analysis commands.  Pieces that
    mention them are skipped, which both keeps recovery safe and keeps
    deobfuscation time flat (paper Fig 6). *)

val commands : string list
(** The blocklist, lowercase command and method names. *)

val is_blocked : string -> bool
(** Caseless membership test. *)

val mentions_blocked_command : string -> bool
(** True when the piece's {e token stream} names a blocked command or
    method (string contents do not trigger it); also true for un-lexable
    pieces, which are never executed. *)

val names_blocked_command : Pslex.Token.t list -> bool
(** {!mentions_blocked_command} on the tokens of a piece that lexed. *)
