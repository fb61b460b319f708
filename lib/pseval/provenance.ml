(** Value provenance for dynamic recovery (PowerPeeler-style).

    When the deobfuscator executes a region the static tracer cannot fold
    (loop-carried bindings, conditional payload assembly), it installs a
    recorder here.  Each variable write is stamped with a provenance
    record — the defining source extent, the evaluation step index, and
    the set of records the written value was derived from — so a final
    binding can be mapped back to the exact source region that produced
    it, instead of guessed from a symbol table.

    The recorder is fail-safe by construction: {!note} never lets an
    exception escape into the interpreter.  Any fault — including one
    injected at the [interp.provenance] chaos site — {e poisons} the
    recorder instead; the dynamic recovery stage treats a poisoned
    recorder as "this region is unverifiable" and degrades to the static
    result.  A recorder also never grows without bound: past [cap]
    records it poisons itself rather than drop provenance silently. *)

open Pscommon

type record = {
  id : int;
  var : string;  (** binding name, lowercased (the scope-table key) *)
  spelled : string;  (** the name as written at the defining site *)
  extent : Extent.t;  (** source extent of the defining assignment *)
  step : int;  (** evaluator step index at the write *)
  deps : int list;  (** ids of the last writes of each value read *)
}

type t = {
  mutable records : record list;  (** reverse order *)
  latest : (string, record) Hashtbl.t;  (** var -> most recent write *)
  by_id : (int, record) Hashtbl.t;
  mutable next_id : int;
  cap : int;
  mutable poisoned : string option;
}

let create ?(cap = 65536) () =
  {
    records = [];
    latest = Hashtbl.create 64;
    by_id = Hashtbl.create 64;
    next_id = 0;
    cap;
    poisoned = None;
  }

let poisoned t = t.poisoned
let count t = t.next_id

let note t ~var ~spelled ~extent ~step ~reads =
  if t.poisoned = None then
    try
      Chaos.probe "interp.provenance";
      if t.next_id >= t.cap then t.poisoned <- Some "provenance cap exceeded"
      else begin
        let deps =
          List.filter_map
            (fun name ->
              match Hashtbl.find_opt t.latest name with
              | Some r -> Some r.id
              | None -> None)
            reads
          |> List.sort_uniq compare
        in
        let r = { id = t.next_id; var; spelled; extent; step; deps } in
        t.next_id <- t.next_id + 1;
        t.records <- r :: t.records;
        Hashtbl.replace t.latest var r;
        Hashtbl.replace t.by_id r.id r
      end
    with e ->
      (* fail-safe: a recorder fault must never crash the evaluation it is
         observing — it invalidates the provenance instead *)
      t.poisoned <- Some (Printexc.to_string e)

let records t = List.rev t.records

let last_write t name = Hashtbl.find_opt t.latest (Strcase.lower name)

(* Transitive dependency closure of a binding's final value: every source
   extent that contributed to it, in first-write order. *)
let defining_extents t name =
  match last_write t name with
  | None -> []
  | Some root ->
      let seen = Hashtbl.create 16 in
      let rec visit acc id =
        if Hashtbl.mem seen id then acc
        else begin
          Hashtbl.replace seen id ();
          match Hashtbl.find_opt t.by_id id with
          | None -> acc
          | Some r -> List.fold_left visit (r :: acc) r.deps
        end
      in
      visit [] root.id
      |> List.sort (fun a b -> compare a.id b.id)
      |> List.map (fun r -> r.extent)

(* ---------- dependency extraction ---------- *)

(* Variable names an expression reads, for dependency stamping.  A local
   walk (pseval cannot see the deobfuscator's tracer): [$name] reads and
   expandable-string interpolations, by their folded names. *)
let read_vars ast =
  let module A = Psast.Ast in
  let acc = ref [] in
  let add (v : A.variable) = acc := v.A.var_key.A.folded :: !acc in
  A.iter_post_order
    (fun n ->
      match n.A.node with
      | A.Variable_expr v -> add v
      | A.Expandable_string (_, parts) ->
          List.iter
            (function
              | A.Part_variable (v, _) -> add v
              | A.Part_text _ | A.Part_subexpr _ -> ())
            parts
      | _ -> ())
    ast;
  List.sort_uniq String.compare !acc
