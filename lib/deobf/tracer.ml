(** Variable tracing (paper Algorithm 1).

    A symbol table records the value of variables assigned by straight-line
    top-level code.  Variables assigned inside loops or conditionals are
    deliberately {e not} recorded (their value depends on run time), and an
    assignment whose right-hand side mentions an unknown variable evicts the
    target.  Recovery seeds its evaluation environment from this table,
    which is what lets it execute pieces that mention variables. *)

open Pscommon
module A = Psast.Ast
module Value = Psvalue.Value

let m_records = Telemetry.Metrics.counter "tracer.records"
let m_evictions = Telemetry.Metrics.counter "tracer.evictions"

type t = {
  mutable table : Value.t Strcase.Map.t;
  mutable digest : string option option;
      (** memoized {!Pseval.Env.bindings_digest} of [table]; outer [None]
          means stale (recompute), inner [None] means the table holds a
          compound value and cannot be fingerprinted *)
}

let create () = { table = Strcase.Map.empty; digest = None }

let automatic_names =
  List.fold_left
    (fun acc (n, _) -> Strcase.Set.add n acc)
    Strcase.Set.empty Pseval.Env.automatic_variables
  |> Strcase.Set.add "_"
  |> Strcase.Set.add "args"
  |> Strcase.Set.add "input"
  |> Strcase.Set.add "ofs"
  |> Strcase.Set.add "$"
  |> Strcase.Set.add "?"
  |> Strcase.Set.add "^"

let is_automatic name =
  Strcase.Set.mem name automatic_names
  || Strcase.starts_with ~prefix:"env:" name

let record t name value =
  Telemetry.Metrics.incr m_records;
  if Telemetry.active () then
    Telemetry.event "tracer.record"
      ~attrs:
        [ ("var", Telemetry.S name);
          ("type", Telemetry.S (Value.type_name value)) ];
  t.table <- Strcase.Map.add (Strcase.lower name) value t.table;
  t.digest <- None

let remove t name =
  (* an eviction decision (unknown RHS, loop-assigned, blocklisted RHS,
     failed evaluation) — only note ones that change the table *)
  if Strcase.Map.mem (Strcase.lower name) t.table then begin
    Telemetry.Metrics.incr m_evictions;
    if Telemetry.active () then
      Telemetry.event "tracer.evict" ~attrs:[ ("var", Telemetry.S name) ]
  end;
  t.table <- Strcase.Map.remove (Strcase.lower name) t.table;
  t.digest <- None

let lookup t name = Strcase.Map.find_opt (Strcase.lower name) t.table

let known t name = is_automatic name || Strcase.Map.mem (Strcase.lower name) t.table

let bindings t = Strcase.Map.bindings t.table

let digest t =
  match t.digest with
  | Some d -> d
  | None ->
      let d = Pseval.Env.bindings_digest (bindings t) in
      t.digest <- Some d;
      d

(** Seed an evaluation environment with the traced values. *)
let seed_env t env =
  Strcase.Map.iter
    (fun name value ->
      Pseval.Env.set_var env (Psparse.Names.var_key name) value)
    t.table

(** Variables read anywhere in a subtree: every VariableExpressionAst plus
    interpolations inside expandable strings. *)
let variables_read node =
  let from_parts parts =
    List.filter_map
      (function
        | A.Part_variable (v, _) -> Some v.A.var_name
        | A.Part_text _ | A.Part_subexpr _ -> None)
      parts
  in
  A.fold_pre_order
    (fun acc n ->
      match n.A.node with
      | A.Variable_expr v -> v.A.var_name :: acc
      | A.Expandable_string (_, parts) -> from_parts parts @ acc
      | _ -> acc)
    [] node

(** Unknown variables in a subtree — Algorithm 1 line 15. *)
let unknown_variables t node =
  variables_read node
  |> List.filter (fun name -> not (known t name))
  |> List.sort_uniq Strcase.compare

(** Names assigned anywhere in a subtree (assignment statements, foreach
    loop variables, ++/--).  Used to evict variables mutated inside
    loop/conditional bodies. *)
let assigned_names node =
  A.fold_pre_order
    (fun acc n ->
      match n.A.node with
      | A.Assignment (_, { A.node = A.Variable_expr v; _ }, _) ->
          v.A.var_name :: acc
      | A.Assignment (_, { A.node = A.Convert_expr (_, { A.node = A.Variable_expr v; _ }); _ }, _) ->
          v.A.var_name :: acc
      | A.Foreach_stmt ({ A.node = A.Variable_expr v; _ }, _, _) ->
          v.A.var_name :: acc
      | A.Unary_expr ((A.Incr | A.Decr), { A.node = A.Variable_expr v; _ })
      | A.Postfix_expr ((A.Incr | A.Decr), { A.node = A.Variable_expr v; _ }) ->
          v.A.var_name :: acc
      | _ -> acc)
    [] node
  |> List.sort_uniq Strcase.compare

let evict_assigned t node = List.iter (remove t) (assigned_names node)
