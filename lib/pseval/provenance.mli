(** Value provenance for dynamic recovery (PowerPeeler-style).

    A recorder installed on an {!Env.t} stamps each variable write with
    its defining source extent, step index, and dependency set, so final
    values can be mapped back to the source regions that produced them.
    Fail-safe: a recorder fault (including the [interp.provenance] chaos
    site) poisons the recorder rather than escaping into evaluation. *)

type record = {
  id : int;
  var : string;  (** binding name, lowercased (the scope-table key) *)
  spelled : string;  (** the name as written at the defining site *)
  extent : Pscommon.Extent.t;  (** source extent of the defining assignment *)
  step : int;  (** evaluator step index at the write *)
  deps : int list;  (** ids of the last writes of each value read *)
}

type t

val create : ?cap:int -> unit -> t
(** Fresh recorder; past [cap] records it poisons itself (never silently
    drops provenance). *)

val note :
  t -> var:string -> spelled:string -> extent:Pscommon.Extent.t ->
  step:int -> reads:string list -> unit
(** Stamp one variable write of [var], a folded name (the AST's
    [var_key.folded]) spelled [spelled] at the site.  [reads] are the
    folded names the written value was derived from; they resolve to the
    ids of their last writes.  Never raises — any fault poisons the
    recorder instead. *)

val poisoned : t -> string option
(** Set when recording failed; the provenance map must not be trusted. *)

val count : t -> int
(** Records stamped so far. *)

val records : t -> record list
(** All records in write order. *)

val last_write : t -> string -> record option
(** The most recent write of a binding (name case-insensitive). *)

val defining_extents : t -> string -> Pscommon.Extent.t list
(** Transitive dependency closure of a binding's final value: every source
    extent that contributed to it, in first-write order. *)

val read_vars : Psast.Ast.t -> string list
(** Variable names an expression reads ([$name] and expandable-string
    interpolations), folded, sorted, deduplicated. *)
