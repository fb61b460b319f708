(** The interpreter — the reproduction of [ScriptBlock.Invoke].

    Evaluates the PowerShell subset that obfuscation recovery code uses:
    full expression semantics, pipelines with streaming enumeration, the
    cmdlets obfuscators emit, user functions, and control flow.  Execution
    is budgeted ({!Env.limits}) and side effects go through {!Env.record},
    so [Recovery] mode can never touch the outside world. *)

open Psvalue
module A = Psast.Ast
module Strcase = Pscommon.Strcase

exception Return_exc of Value.t list
exception Break_exc
exception Continue_exc
exception Throw_exc of Value.t
exception Exit_exc

type ctx = {
  env : Env.t;
  src : string;
  src_exact : bool;
}

(* a ForEach-Object or Where-Object block, resolved for one pipeline *)
type stage_block = {
  block_ctx : ctx;
  statements : A.t list;
  item_cursor : Env.cursor;
  input_cursor : Env.cursor;
}

let m_payload_lookups =
  Pscommon.Telemetry.Metrics.counter "verify.payload_lookups"

let m_payloads_reused =
  Pscommon.Telemetry.Metrics.counter "verify.payloads_reused"

let eval_fail fmt = Printf.ksprintf (fun s -> raise (Env.Eval_error s)) fmt

let node_text ctx (t : A.t) = A.text ctx.src t

(* provenance stamping: one option load per variable write when no recorder
   is installed, so the plane is free on production recovery paths.  [rhs]
   (when given) contributes its variable reads to the dependency set;
   [reads_self] says the node shape reads the target too (compound
   assignment and ++/--). *)
let note_write ctx ?rhs ?(reads_self = false) ~extent (v : A.variable) =
  match ctx.env.Env.provenance with
  | None -> ()
  | Some p ->
      let folded = v.A.var_key.A.folded in
      let reads =
        (if reads_self then [ folded ] else [])
        @ (match rhs with Some r -> Provenance.read_vars r | None -> [])
      in
      Provenance.note p ~var:folded ~spelled:v.A.var_name ~extent
        ~step:ctx.env.Env.steps ~reads

(* pipeline-boundary enumeration: arrays stream element-wise *)
let enumerate v = Value.to_list v

(* A stage's items: like [enumerate], but an array, copied so a stage sees
   the items as they were when the previous stage produced them *)
let stage_items (v : Value.t) =
  match v with Null -> [||] | Arr a -> Array.copy a | v -> [| v |]

(* Loops and per-item stages gather their output in a growable array:
   appending each iteration's output to the total so far would be
   quadratic in the number of iterations, and a list built in reverse and
   reversed at the end holds two conses per item that outlive the loop. *)
type outbuf = { mutable items : Value.t array; mutable len : int }

(* [expected]: the items a per-item stage expects to emit, one per input *)
let outbuf ?(expected = 0) () = { items = Array.make expected Value.Null; len = 0 }

let emit out v =
  if out.len = Array.length out.items then begin
    let grown = Array.make (max 8 (2 * out.len)) Value.Null in
    Array.blit out.items 0 grown 0 out.len;
    out.items <- grown
  end;
  out.items.(out.len) <- v;
  out.len <- out.len + 1

let rec collect out = function
  | [] -> ()
  | v :: rest ->
      emit out v;
      collect out rest

(* [collect out (enumerate v)] *)
let emit_items out (v : Value.t) =
  match v with
  | Null -> ()
  | Arr a ->
      for i = 0 to Array.length a - 1 do
        emit out (Array.unsafe_get a i)
      done
  | v -> emit out v

(* [Value.to_bool (Value.of_list items)] of the items emitted *)
let truthy out =
  match out.len with 0 -> false | 1 -> Value.to_bool out.items.(0) | _ -> true

(* the items emitted; a full buffer is handed over, not copied *)
let contents out =
  if out.len = Array.length out.items then out.items else Array.sub out.items 0 out.len

let contents_list out = Array.to_list (contents out)

(* ---------- expressions ---------- *)

(* every expression result passes one O(1) size check and is charged what
   building it cost: string concat, -join, -f, array append, member calls —
   all the paths a decode bomb can grow through — are bounded without
   instrumenting each operator.  A variable read or a literal builds
   nothing, so it is not charged again. *)
let rec eval_expr ctx (t : A.t) : Value.t =
  let v = eval_expr_unchecked ctx t in
  (match v with
  | Value.Str _ | Value.Arr _ -> (
      match t.A.node with
      | A.Variable_expr _ | A.String_const _ -> Env.check_size ctx.env v
      | _ -> Env.built ctx.env v)
  | _ -> ());
  v

and eval_expr_unchecked ctx (t : A.t) : Value.t =
  Env.tick ctx.env;
  match t.A.node with
  | A.String_const (s, _) -> Value.Str s
  | A.Number_const (A.Int_lit n) -> Value.of_int n
  | A.Number_const (A.Float_lit f) -> Value.Float f
  | A.Expandable_string (_, parts) ->
      let buf = Buffer.create 32 in
      List.iter
        (fun part ->
          match part with
          | A.Part_text s -> Buffer.add_string buf s
          | A.Part_variable (v, _) ->
              Buffer.add_string buf (Value.to_string (read_variable ctx v))
          | A.Part_subexpr e -> Buffer.add_string buf (Value.to_string (eval_expr ctx e)))
        parts;
      Value.Str (Buffer.contents buf)
  | A.Variable_expr v -> read_variable ctx v
  | A.Binary_expr (op, sensitivity, a, b) -> eval_binary ctx op sensitivity a b
  | A.Unary_expr (op, operand) -> eval_unary ctx op operand
  | A.Postfix_expr (op, operand) -> eval_postfix ctx op operand
  | A.Convert_expr (ty, inner) -> (
      let v = eval_expr ctx inner in
      match ty.A.key with
      | "io.compression.deflatestream" | "io.streamreader" ->
          (* cast form of stream construction is rare; treat like New-Object
             with a single argument *)
          construct_object ctx ty.A.key [ v ]
      | key -> Casts.cast key v)
  | A.Type_literal ty ->
      Value.Obj { Value.otype = type_display_name ty.A.key; okind = Value.Generic }
  | A.Member_access (obj, member, static) ->
      eval_member_access ctx t obj member static
  | A.Invoke_member (obj, member, args, static) ->
      eval_invoke_member ctx t obj member args static
  | A.Index_expr (obj, idx) ->
      let container = eval_expr ctx obj in
      let index = eval_expr ctx idx in
      Ops.index_value container index
  | A.Array_literal elems ->
      Value.Arr (Value.array_of_list (eval_args ctx elems))
  | A.Array_expr stmts ->
      Value.Arr (Value.array_of_list (eval_statements ctx stmts))
  | A.Hash_literal pairs ->
      Value.Hash
        (List.map
           (fun (k, v) ->
             let key = eval_expr ctx k in
             let value = Value.of_list (eval_statement ctx v) in
             (key, value))
           pairs)
  | A.Sub_expr stmts -> Value.of_list (eval_statements ctx stmts)
  | A.Paren_expr stmt -> (
      match stmt.A.node with
      | A.Assignment (_, _, _) -> (
          ignore (eval_statement ctx stmt);
          (* ($x=5) yields the assigned value *)
          match stmt.A.node with
          | A.Assignment (_, lhs, _) -> eval_expr ctx lhs
          | _ -> Value.Null)
      | A.Pipeline elems -> Value.of_items (pipeline_statement ctx stmt elems)
      | _ -> Value.of_list (eval_statement ctx stmt))
  | A.Script_block_expr sb ->
      Value.Script_block
        { Value.sb_ast = sb; sb_text = block_text ctx t; sb_src = ctx.src }
  | A.Pipeline _ | A.Command _ | A.Command_expression _ ->
      Value.of_list (eval_statement ctx t)
  | _ -> eval_fail "cannot evaluate %s as an expression" (A.kind_name t)

(* A script block literal's text.  Where [ctx.src] may not be the text the
   node's extent indexes, the slice, and whether it is in range at all,
   depends on where the block sits, not on its parse. *)
and block_text ctx t =
  if not ctx.src_exact then Env.taint ctx.env;
  strip_braces (node_text ctx t)

and strip_braces text =
  let text = String.trim text in
  if String.length text >= 2 && text.[0] = '{' && text.[String.length text - 1] = '}'
  then String.sub text 1 (String.length text - 2)
  else text

(* [key] is a type's lookup key ({!Psparse.Names.type_key}) *)
and type_display_name key =
  "System." ^ String.concat "." (List.map String.capitalize_ascii (String.split_on_char '.' key))

and read_variable ctx (v : A.variable) =
  match v.A.var_key.A.folded with
  | "args" -> (
      match Env.get_var ctx.env Env.args_var with Some v -> v | None -> Value.Arr [||])
  | "input" -> (
      match Env.get_var ctx.env Env.input_var with Some v -> v | None -> Value.Arr [||])
  | "ofs" -> Value.Str " "
  | _ -> (
      match Env.read_var ctx.env v.A.var_key with
      | v -> v
      | exception Not_found -> (
          match ctx.env.Env.mode with
          | Env.Recovery -> eval_fail "undefined variable $%s" v.A.var_name
          | Env.Sandbox -> Value.Null))

and eval_binary ctx op sensitivity a b =
  let va = eval_expr ctx a in
  match op with
  | A.And_op -> if not (Value.to_bool va) then Value.Bool false else Ops.logical op va (eval_expr ctx b)
  | A.Or_op -> if Value.to_bool va then Value.Bool true else Ops.logical op va (eval_expr ctx b)
  | _ -> (
      let vb = eval_expr ctx b in
      match op with
      | A.Add -> Ops.add va vb
      | A.Sub -> Ops.subtract va vb
      | A.Mul -> Ops.multiply ctx.env va vb
      | A.Div -> Ops.divide va vb
      | A.Mod -> Ops.modulo va vb
      | A.Format -> Value.Str (Format_op.format (Value.to_string va) (Value.to_list vb))
      | A.Range -> Ops.range ctx.env.Env.limits.Env.max_collection va vb
      | A.Eq | A.Ne | A.Gt | A.Ge | A.Lt | A.Le | A.Like | A.Notlike | A.Match
      | A.Notmatch ->
          Ops.comparison ctx.env op sensitivity va vb
      | A.Replace -> Ops.replace_op ctx.env sensitivity va vb
      | A.Split -> Ops.split_op ctx.env sensitivity va vb
      | A.Join -> Ops.join_op va vb
      | A.Contains ->
          Ops.contains_op ~case_sensitive:(sensitivity = Some true) ~negate:false va vb
      | A.Notcontains ->
          Ops.contains_op ~case_sensitive:(sensitivity = Some true) ~negate:true va vb
      | A.In_op ->
          Ops.in_op ~case_sensitive:(sensitivity = Some true) ~negate:false va vb
      | A.Notin ->
          Ops.in_op ~case_sensitive:(sensitivity = Some true) ~negate:true va vb
      | A.Is_op -> (
          match vb with
          | Value.Obj { Value.otype; _ } -> Value.Bool (Ops.type_matches otype va)
          | v -> Value.Bool (Ops.type_matches (Value.to_string v) va))
      | A.Isnot -> (
          match eval_binary ctx A.Is_op sensitivity a b with
          | Value.Bool x -> Value.Bool (not x)
          | _ -> Value.Bool false)
      | A.As_op -> (
          let target =
            match vb with
            | Value.Obj { Value.otype; _ } -> otype
            | v -> Value.to_string v
          in
          try Casts.cast (Psparse.Names.type_key target) va
          with Casts.Cast_error _ -> Value.Null)
      | A.Band | A.Bor | A.Bxor | A.Shl | A.Shr -> Ops.bitwise op va vb
      | A.And_op | A.Or_op | A.Xor_op -> Ops.logical op va vb)

and eval_unary ctx op operand =
  match op with
  | A.Not -> Value.Bool (not (Value.to_bool (eval_expr ctx operand)))
  | A.Negate -> (
      match eval_expr ctx operand with
      | Value.Int n -> Value.Int (-n)
      | Value.Float f -> Value.Float (-.f)
      | v -> Value.Int (-(Value.to_int v)))
  | A.Unary_plus -> (
      match eval_expr ctx operand with
      | Value.Int n -> Value.Int n
      | Value.Float f -> Value.Float f
      | v -> Value.Int (Value.to_int v))
  | A.Bnot -> Value.Int (lnot (Value.to_int (eval_expr ctx operand)))
  | A.Ujoin -> Ops.unary_join (eval_expr ctx operand)
  | A.Usplit -> Ops.unary_split (eval_expr ctx operand)
  | A.Incr | A.Decr -> (
      let delta = if op = A.Incr then 1 else -1 in
      match operand.A.node with
      | A.Variable_expr v ->
          let old = try Value.to_int (read_variable ctx v) with _ -> 0 in
          Env.set_var ctx.env v.A.var_key (Value.Int (old + delta));
          note_write ctx ~reads_self:true ~extent:operand.A.extent v;
          Value.Int (old + delta)
      | _ -> eval_fail "++/-- requires a variable")

and eval_postfix ctx op operand =
  let delta = if op = A.Incr then 1 else -1 in
  match operand.A.node with
  | A.Variable_expr v ->
      let old = try Value.to_int (read_variable ctx v) with _ -> 0 in
      Env.set_var ctx.env v.A.var_key (Value.Int (old + delta));
      note_write ctx ~reads_self:true ~extent:operand.A.extent v;
      Value.Int old
  | _ -> eval_fail "++/-- requires a variable"

(* a member's name: keyed by the parser, or folded here when [.$x] or
   [."name"] computes it at run time *)
and member_name ctx member =
  match member with
  | A.Member_name n -> n
  | A.Member_dynamic e -> Psparse.Names.folded (Value.to_string (eval_expr ctx e))

and eval_member_access ctx whole obj member static =
  let name = member_name ctx member in
  if static then begin
    match obj.A.node with
    | A.Type_literal ty -> (
        match Statics.get_static ty.A.key name.A.key with
        | Some v -> v
        | None ->
            eval_fail "unknown static member [%s]::%s" ty.A.written name.A.written)
    | _ -> eval_fail "static member access requires a type literal"
  end
  else begin
    let v = eval_expr ctx obj in
    match Members.get_property v name.A.key with
    | Some result -> result
    | None -> (
        match name.A.key with
        | "length" | "count" -> (
            (* scalars have Length 1 in PS, $null has 0 *)
            match v with Value.Null -> Value.Int 0 | _ -> Value.Int 1)
        | _ -> (
            match ctx.env.Env.mode with
            | Env.Recovery ->
                Env.taint ctx.env;
                eval_fail "unknown property '%s' on %s (%s)" name.A.written
                  (Value.type_name v)
                  (String.trim (node_text ctx whole))
            | Env.Sandbox -> Value.Null))
  end

and eval_invoke_member ctx whole obj member args static =
  let name = member_name ctx member in
  let arg_values = eval_args ctx args in
  if static then begin
    match obj.A.node with
    | A.Type_literal ty -> (
        match Statics.invoke_static ty.A.key name.A.key arg_values with
        | Some v -> v
        | None ->
            eval_fail "unknown static method [%s]::%s" ty.A.written name.A.written)
    | _ -> eval_fail "static method call requires a type literal"
  end
  else begin
    let v = eval_expr ctx obj in
    match (v, name.A.key) with
    | Value.Script_block sb, ("invoke" | "invokereturnasis") ->
        Value.of_list (invoke_script_block ctx sb arg_values ~input:[||])
    | _ -> (
        match Members.invoke_method ctx.env v name.A.key arg_values with
        | Some result -> result
        | None -> (
            match ctx.env.Env.mode with
            | Env.Recovery ->
                Env.taint ctx.env;
                eval_fail "unknown method '%s' on %s (%s)" name.A.written
                  (Value.type_name v)
                  (String.trim (node_text ctx whole))
            | Env.Sandbox -> Value.Null))
  end

(* [List.map (eval_expr ctx)], left to right, without the closure *)
and eval_args ctx = function
  | [] -> []
  | a :: rest ->
      let v = eval_expr ctx a in
      v :: eval_args ctx rest

(* ---------- script blocks & functions ---------- *)

and invoke_script_block ctx (sb : Value.sb) args ~input =
  Env.with_scope ctx.env (fun () ->
      let params = sb.Value.sb_ast.A.sb_params in
      bind_parameters ctx params args;
      Env.set_var ctx.env Env.input_var (Value.Arr (Array.copy input));
      let inner_ctx = { ctx with src = sb.Value.sb_src; src_exact = false } in
      let stmts = sb.Value.sb_ast.A.sb_statements in
      try eval_statements inner_ctx stmts with Return_exc out -> out)

and bind_parameters ctx params args =
  let rec bind params args =
    match (params, args) with
    | [], rest -> Env.set_var ctx.env Env.args_var (Value.Arr (Value.array_of_list rest))
    | (p : A.variable) :: ps, a :: rest ->
        Env.set_var ctx.env p.A.var_key a;
        bind ps rest
    | p :: ps, [] ->
        Env.set_var ctx.env p.A.var_key Value.Null;
        bind ps []
  in
  bind params args

and invoke_function ctx (fn : Env.fn) args ~input =
  (* the body's extents index the text the function was defined in, which
     need not be the caller's *)
  let ctx = { ctx with src_exact = false } in
  Env.with_scope ctx.env (fun () ->
      bind_parameters ctx fn.Env.fn_params args;
      Env.set_var ctx.env Env.input_var (Value.Arr (Array.copy input));
      let body_stmts =
        match fn.Env.fn_body.A.node with
        | A.Script_block sb -> sb.A.sb_statements
        | A.Statement_block stmts -> stmts
        | _ -> [ fn.Env.fn_body ]
      in
      (* begin/process/end: begin runs once, process once per pipeline item
         with $_ bound, end once *)
      let named name =
        List.filter_map
          (fun s ->
            match s.A.node with
            | A.Named_block (n, body) when Strcase.equal n name -> Some body
            | _ -> None)
          body_stmts
      in
      let process_blocks = named "process" in
      if process_blocks <> [] then begin
        try
          let out = outbuf () in
          let run b = collect out (eval_statement ctx b) in
          List.iter run (named "begin");
          Array.iter
            (fun item ->
              Env.set_var ctx.env Env.item_var item;
              List.iter run process_blocks)
            input;
          List.iter run (named "end");
          contents_list out
        with Return_exc out -> out
      end
      else try eval_statements ctx body_stmts with Return_exc out -> out)

(* ---------- statements ---------- *)

and eval_statements ctx stmts =
  match stmts with
  | [ stmt ] -> eval_statement ctx stmt
  | stmts -> List.concat_map (eval_statement ctx) stmts

and bind_param_defaults ctx names =
  List.iter
    (fun (n : A.variable) ->
      match Env.get_var ctx.env n.A.var_key with
      | Some _ -> ()
      | None -> Env.set_var ctx.env n.A.var_key Value.Null)
    names

and eval_statement ctx (t : A.t) : Value.t list =
  match t.A.node with
  | A.Pipeline elems -> enumerate (pipeline_statement ctx t elems)
  | _ -> eval_other_statement ctx t

(* a statement that is not a pipeline *)
and eval_other_statement ctx (t : A.t) : Value.t list =
  Env.tick ctx.env;
  match t.A.node with
  | A.Script_block sb ->
      bind_param_defaults ctx sb.A.sb_params;
      eval_statements ctx sb.A.sb_statements
  | A.Named_block (_, body) -> eval_statement ctx body
  | A.Statement_block stmts -> eval_statements ctx stmts
  | A.Assignment (op, lhs, rhs) ->
      eval_assignment ctx op lhs rhs;
      []
  | A.If_stmt (clauses, else_branch) -> (
      let rec try_clauses = function
        | [] -> (
            match else_branch with
            | Some b -> eval_statement ctx b
            | None -> [])
        | (cond, body) :: rest ->
            if Value.to_bool (Value.of_list (eval_statement ctx cond)) then
              eval_statement ctx body
            else try_clauses rest
      in
      try_clauses clauses)
  | A.While_stmt (cond, body) ->
      let out = outbuf () in
      (try
         while Value.to_bool (Value.of_list (eval_statement ctx cond)) do
           Env.tick ctx.env;
           try collect out (eval_statement ctx body)
           with Continue_exc -> ()
         done
       with Break_exc -> ());
      contents_list out
  | A.Do_while_stmt (body, cond) ->
      let out = outbuf () in
      (try
         let continue = ref true in
         while !continue do
           Env.tick ctx.env;
           (try collect out (eval_statement ctx body) with Continue_exc -> ());
           continue := Value.to_bool (Value.of_list (eval_statement ctx cond))
         done
       with Break_exc -> ());
      contents_list out
  | A.Do_until_stmt (body, cond) ->
      let out = outbuf () in
      (try
         let continue = ref true in
         while !continue do
           Env.tick ctx.env;
           (try collect out (eval_statement ctx body) with Continue_exc -> ());
           continue := not (Value.to_bool (Value.of_list (eval_statement ctx cond)))
         done
       with Break_exc -> ());
      contents_list out
  | A.For_stmt (init, cond, step, body) ->
      (match init with Some s -> ignore (eval_statement ctx s) | None -> ());
      let out = outbuf () in
      (try
         let check () =
           match cond with
           | Some c -> Value.to_bool (Value.of_list (eval_statement ctx c))
           | None -> true
         in
         while check () do
           Env.tick ctx.env;
           (try collect out (eval_statement ctx body) with Continue_exc -> ());
           match step with Some s -> ignore (eval_statement ctx s) | None -> ()
         done
       with Break_exc -> ());
      contents_list out
  | A.Foreach_stmt (var, coll, body) ->
      let items = enumerate (Value.of_list (eval_statement ctx coll)) in
      let loop_var =
        match var.A.node with
        | A.Variable_expr v -> v
        | _ -> eval_fail "foreach requires a variable"
      in
      let out = outbuf () in
      (try
         List.iter
           (fun item ->
             Env.tick ctx.env;
             Env.set_var ctx.env loop_var.A.var_key item;
             note_write ctx ~rhs:coll ~extent:var.A.extent loop_var;
             try collect out (eval_statement ctx body) with Continue_exc -> ())
           items
       with Break_exc -> ());
      contents_list out
  | A.Switch_stmt (value, cases, default) ->
      let subjects = enumerate (Value.of_list (eval_statement ctx value)) in
      let out = outbuf () in
      (try
         List.iter
           (fun subject ->
             Env.set_var ctx.env Env.item_var subject;
             let matched = ref false in
             List.iter
               (fun (pat, body) ->
                 let hit =
                   match pat.A.node with
                   | A.Script_block_expr sb ->
                       Value.to_bool
                         (Value.of_list
                            (invoke_script_block ctx
                               { Value.sb_ast = sb; sb_text = block_text ctx pat;
                                 sb_src = ctx.src }
                               [] ~input:[| subject |]))
                   | _ ->
                       let pv = eval_expr ctx pat in
                       Value.equal_loose pv subject
                 in
                 if hit then begin
                   matched := true;
                   try collect out (eval_statement ctx body) with Continue_exc -> ()
                 end)
               cases;
             if not !matched then
               match default with
               | Some body -> (
                   try collect out (eval_statement ctx body) with Continue_exc -> ())
               | None -> ())
           subjects
       with Break_exc -> ());
      contents_list out
  | A.Function_def (name, params, body) ->
      Env.define_function ctx.env name.A.key { Env.fn_params = params; fn_body = body };
      []
  | A.Param_block names ->
      bind_param_defaults ctx names;
      []
  | A.Return_stmt value ->
      let out = match value with Some v -> eval_statement ctx v | None -> [] in
      raise (Return_exc out)
  | A.Break_stmt -> raise Break_exc
  | A.Continue_stmt -> raise Continue_exc
  | A.Throw_stmt value ->
      let v =
        match value with
        | Some e -> Value.of_list (eval_statement ctx e)
        | None -> Value.Str "ScriptHalted"
      in
      raise (Throw_exc v)
  | A.Exit_stmt _ -> raise Exit_exc
  | A.Try_stmt (body, catches, finally) ->
      let run_finally () =
        match finally with
        | Some f -> ignore (eval_statement ctx f)
        | None -> ()
      in
      let run_catch () =
        Env.set_var ctx.env Env.item_var Value.Null;
        match catches with
        | (_, handler) :: _ -> eval_statement ctx handler
        | [] -> []
      in
      let result =
        try eval_statement ctx body with
        | Throw_exc _ when catches <> [] -> run_catch ()
        | Env.Eval_error _ when catches <> [] -> run_catch ()
        | Ops.Op_error _ when catches <> [] -> run_catch ()
        | Value.Conversion_error _ when catches <> [] -> run_catch ()
      in
      run_finally ();
      result
  | A.Trap_stmt _ -> []
  | A.Command _ | A.Command_expression _ -> Array.to_list (run_pipeline ctx [ t ])
  | A.Postfix_expr ((A.Incr | A.Decr), _) | A.Unary_expr ((A.Incr | A.Decr), _) ->
      (* ++/-- in statement position discards its value *)
      ignore (eval_expr ctx t);
      []
  | _ ->
      (* expression in statement position *)
      enumerate (eval_expr ctx t)

and eval_assignment ctx op lhs rhs =
  let rhs_value = Value.of_list (eval_statement ctx rhs) in
  let combined current =
    match op with
    | A.Assign -> rhs_value
    | A.Plus_assign -> Ops.add current rhs_value
    | A.Minus_assign -> Ops.subtract current rhs_value
    | A.Times_assign -> Ops.multiply ctx.env current rhs_value
    | A.Div_assign -> Ops.divide current rhs_value
    | A.Mod_assign -> Ops.modulo current rhs_value
  in
  let combined current =
    let v = combined current in
    if op <> A.Assign then Env.built ctx.env v;
    v
  in
  match lhs.A.node with
  | A.Variable_expr v ->
      let current =
        if op = A.Assign then Value.Null
        else match Env.get_var ctx.env v.A.var_key with Some x -> x | None -> Value.Null
      in
      Env.set_var ctx.env v.A.var_key (combined current);
      note_write ctx ~rhs ~reads_self:(op <> A.Assign)
        ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
        v
  | A.Convert_expr (ty, { A.node = A.Variable_expr v; _ }) ->
      Env.set_var ctx.env v.A.var_key (Casts.cast ty.A.key rhs_value);
      note_write ctx ~rhs
        ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
        v
  | A.Index_expr (obj, idx) -> (
      let container = eval_expr ctx obj in
      let index = eval_expr ctx idx in
      match container with
      | Value.Arr a ->
          let i = Value.to_int index in
          let i = if i < 0 then Array.length a + i else i in
          if i >= 0 && i < Array.length a then begin
            a.(i) <- combined (if op = A.Assign then Value.Null else a.(i));
            match obj.A.node with
            | A.Variable_expr v ->
                note_write ctx ~rhs ~reads_self:true
                  ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
                  v
            | _ -> ()
          end
          else eval_fail "index %d out of range in assignment" i
      | Value.Hash _ -> (
          (* immutable hash representation: rebuild and store when the
             container is a plain variable *)
          match obj.A.node with
          | A.Variable_expr v ->
              let pairs = match container with Value.Hash p -> p | _ -> [] in
              let filtered = List.filter (fun (k, _) -> not (Value.equal_loose k index)) pairs in
              Env.set_var ctx.env v.A.var_key (Value.Hash (filtered @ [ (index, rhs_value) ]));
              note_write ctx ~rhs ~reads_self:true
                ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
                v
          | _ -> eval_fail "cannot assign into this hashtable expression")
      | _ -> eval_fail "cannot index-assign into %s" (Value.type_name container))
  | A.Array_literal vars ->
      (* multiple assignment: $a, $b = 1, 2 *)
      let values = Value.to_list rhs_value in
      List.iteri
        (fun i lhs_item ->
          match lhs_item.A.node with
          | A.Variable_expr v ->
              let value =
                if i < List.length values then List.nth values i else Value.Null
              in
              Env.set_var ctx.env v.A.var_key value;
              note_write ctx ~rhs
                ~extent:(Pscommon.Extent.union lhs_item.A.extent rhs.A.extent)
                v
          | _ -> eval_fail "unsupported multiple-assignment target")
        vars
  | A.Member_access (_, _, _) -> ()  (* property assignment: ignored *)
  | _ -> eval_fail "unsupported assignment target %s" (A.kind_name lhs)

(* ---------- pipelines & commands ---------- *)

(* The output of pipeline statement [t], its stages [elems], as one value
   whose items ({!enumerate}) are the output and whose array, if it is
   one, no other value holds: one tick, then the pipeline, whose steps a
   payload probe records when [t] is its target. *)
and pipeline_statement ctx t elems =
  Env.tick ctx.env;
  match ctx.env.Env.probe with
  | Some p when Env.is_target p t ->
      let before = ctx.env.Env.steps in
      let out = pipeline ctx elems in
      Env.set_in_place p (ctx.env.Env.steps - before);
      out
  | Some _ | None -> pipeline ctx elems

(* A lone expression's value, with no array made around a scalar (`$i++`
   alone yields nothing); a longer pipeline's output as an array *)
and pipeline ctx elems =
  match elems with
  | [ { A.node = A.Command_expression e; _ } ] -> (
      match e.A.node with
      | A.Postfix_expr ((A.Incr | A.Decr), _) | A.Unary_expr ((A.Incr | A.Decr), _) ->
          ignore (eval_expr ctx e);
          Value.Null
      | _ -> (
          match eval_expr ctx e with Value.Arr a -> Value.Arr (Array.copy a) | v -> v))
  | elems -> Value.Arr (run_pipeline ctx elems)

(* The output of a pipeline: an array no other value holds *)
and run_pipeline ctx elems =
  match elems with
  | _ :: _ :: _ when payload_table ctx <> None -> (
      (* `<prefix> | iex`: a prefix recovery decoded stands in for running
         the prefix stages; the last stage, its name included, then runs
         as it would in place *)
      match List.rev elems with
      | ({ A.node = A.Command ({ A.cmd_elements = [ A.Elem_name _ ]; _ } as cmd); _ }
         as last)
        :: prefix_rev
        when may_name_iex cmd -> (
          match reused_payload ctx (List.rev prefix_rev) with
          | Some decoded -> run_stages ctx [| decoded |] [ last ]
          | None -> run_stages ctx [||] elems)
      | _ -> run_stages ctx [||] elems)
  | elems -> run_stages ctx [||] elems

(* a bare command name that spells Invoke-Expression, or that is computed
   (`& ('ie'+'x')`) and may evaluate to it *)
and may_name_iex (cmd : A.command) =
  match cmd.A.cmd_key with
  | Some key -> (
      match key.A.cmd_builtin with
      | "invoke-expression" | "iex" -> true
      | _ -> false)
  | None -> true

(* the reference run's payload table where a site may consult it: a request
   that recorded no payload pays nothing at its sites *)
and payload_table ctx =
  match ctx.env.Env.payloads with
  | Some table as found
    when ctx.src_exact && Hashtbl.length table > 0 ->
      found
  | Some _ | None -> None

(* The verify sandbox's reference run: a payload recovery decoded from a
   parse with the same digest as [stages] replaces evaluating them again
   (see {!Env.reuse}) *)
and reused_payload ctx stages =
  match payload_table ctx with
  | Some table -> (
      Pscommon.Telemetry.Metrics.incr m_payload_lookups;
      let digest, site_commands = Psast.Eval_digest.site stages in
      match Hashtbl.find_opt table digest with
      | Some p when Env.reuse ctx.env ~site_commands p ->
          Pscommon.Telemetry.Metrics.incr m_payloads_reused;
          Some (Value.Str p.Env.decoded)
      | Some _ | None -> None)
  | None -> None

and run_stages ctx input = function
  | [] -> input
  | elem :: rest ->
      let output =
        match elem.A.node with
        | A.Command cmd -> run_command ctx cmd ~input
        | A.Command_expression e -> stage_items (eval_expr ctx e)
        | _ -> stage_items (eval_expr ctx elem)
      in
      run_stages ctx output rest

and run_command ctx (cmd : A.command) ~input =
  let name_expr, rest =
    match cmd.A.cmd_elements with
    | A.Elem_name n :: rest -> (n, rest)
    | _ -> eval_fail "command without a name"
  in
  match cmd.A.cmd_key with
  | Some key -> dispatch_command ctx ~key ~elements:rest ~input ~literal:true
  | None -> (
      match eval_expr ctx name_expr with
      | Value.Script_block sb ->
          let args =
            List.filter_map
              (function A.Elem_argument a -> Some (eval_expr ctx a) | _ -> None)
              rest
          in
          Value.array_of_list (invoke_script_block ctx sb args ~input)
      | name_value ->
          (* a name computed at run time: `& ('ie'+'x')` *)
          let key = Psparse.Names.command (Value.to_string name_value) in
          dispatch_command ctx ~key ~elements:rest ~input ~literal:false)

and dispatch_command ctx ~key ~elements ~input ~literal =
  (* user-defined functions take precedence over builtins *)
  match Env.find_function ctx.env key.A.cmd_folded with
  | Some fn ->
      let args = eval_elements_positional ctx elements in
      Value.array_of_list (invoke_function ctx fn args ~input)
  | None -> run_builtin ctx ~key ~elements ~input ~literal

and eval_elements_positional ctx elements =
  List.concat_map
    (function
      | A.Elem_argument a -> [ eval_expr ctx a ]
      | A.Elem_parameter (_, _) | A.Elem_name _ | A.Elem_redirection _ -> [])
    elements

(* parameters as (lowercase name without dash/colon, value option) *)
and eval_elements_parameters ctx elements =
  let rec walk = function
    | [] -> []
    | A.Elem_parameter ({ A.key = pname; _ }, attached) :: rest ->
        (match attached with
        | Some v -> (pname, Some (eval_expr ctx v)) :: walk rest
        | None -> (
            (* a parameter may consume the following argument as its value;
               record it lazily — cmdlets decide *)
            match rest with
            | A.Elem_argument a :: rest' ->
                (pname, Some (eval_expr ctx a)) :: walk rest'
            | _ -> (pname, None) :: walk rest))
    | _ :: rest -> walk rest
  in
  walk elements

and find_param params names =
  List.find_map
    (fun (p, v) ->
      if
        List.exists
          (fun n -> Strcase.starts_with ~prefix:p n && String.length p > 0)
          names
      then Some (p, v)
      else None)
    params

and has_switch params names = find_param params names <> None

and param_value params names =
  match find_param params names with Some (_, v) -> v | None -> None

and script_block_of_value _ctx v =
  match v with
  | Value.Script_block sb -> sb
  | Value.Str s -> (
      match Casts.parse_scriptblock s with
      | Value.Script_block sb -> sb
      | _ -> eval_fail "cannot convert to script block")
  | v -> eval_fail "expected a script block, got %s" (Value.type_name v)

and run_iex ctx payload =
  let env = ctx.env in
  (* a nested layer's depth and Invoke-Expression hook are the caller's *)
  Env.taint env;
  env.Env.invoke_depth <- env.Env.invoke_depth + 1;
  if Pscommon.Telemetry.active () then
    Pscommon.Telemetry.event "interp.iex"
      ~attrs:
        [ ("depth", Pscommon.Telemetry.I env.Env.invoke_depth);
          ("payload_bytes", Pscommon.Telemetry.I (String.length payload)) ];
  if env.Env.invoke_depth > env.Env.limits.Env.max_invoke_depth then
    raise (Env.Limit_exceeded "Invoke-Expression nesting too deep");
  Fun.protect
    ~finally:(fun () -> env.Env.invoke_depth <- env.Env.invoke_depth - 1)
    (fun () ->
      match Psparse.Parser.parse payload with
      | Error e ->
          eval_fail "Invoke-Expression: syntax error at %d: %s"
            e.Psparse.Parser.position e.Psparse.Parser.message
      | Ok ast -> (
          let inner_ctx = { ctx with src = payload; src_exact = true } in
          try eval_statement inner_ctx ast with Return_exc out -> out))

and decode_encoded_command payload =
  match Encoding.Base64.decode payload with
  | Error msg -> eval_fail "bad -EncodedCommand payload: %s" msg
  | Ok bytes ->
      if Encoding.Utf16.looks_utf16 bytes then Encoding.Utf16.decode_lossy bytes
      else bytes

and run_powershell_exe ctx ~elements =
  (* `powershell -enc <b64>` / -command: parameter prefixes are matched with
     StartsWith, like PowerShell's own auto-completion (paper §III-B4) *)
  let rec walk = function
    | [] -> []
    | A.Elem_parameter ({ A.key = pname; _ }, attached) :: rest -> (
        let is_enc =
          pname <> "" && Strcase.starts_with ~prefix:pname "encodedcommand"
          && pname.[0] = 'e'
        in
        let is_cmd = pname <> "" && Strcase.starts_with ~prefix:pname "command" in
        let value_and_rest =
          match attached with
          | Some v -> Some (eval_expr ctx v, rest)
          | None -> (
              match rest with
              | A.Elem_argument a :: rest' -> Some (eval_expr ctx a, rest')
              | _ -> None)
        in
        match (is_enc, is_cmd, value_and_rest) with
        | true, _, Some (v, rest') ->
            let decoded = decode_encoded_command (Value.to_string v) in
            run_iex ctx decoded @ walk rest'
        | _, true, Some (v, rest') -> run_iex ctx (Value.to_string v) @ walk rest'
        | _, _, _ -> walk rest)
    | A.Elem_argument a :: rest -> (
        (* a bare string argument to powershell.exe is a command *)
        let v = eval_expr ctx a in
        match v with
        | Value.Str s when String.length s > 0 -> run_iex ctx s @ walk rest
        | _ -> walk rest)
    | _ :: rest -> walk rest
  in
  walk elements

and synthetic_file_content path =
  Printf.sprintf "# content of %s" path

and run_builtin ctx ~(key : A.command_key) ~elements ~input ~literal =
  let env = ctx.env in
  let lname = key.A.cmd_builtin in
  let positional () = eval_elements_positional ctx elements in
  let params () = eval_elements_parameters ctx elements in
  let iex_payload p =
    let s = Value.to_string p in
    match env.Env.iex_hook with
    | Some hook when hook ~literal s -> []
    | Some _ | None -> run_iex ctx s
  in
  let listed () = Array.to_list input in
  match lname with
  | "invoke-expression" | "iex" ->
      let payloads =
        match elements with
        | [ A.Elem_argument a ] -> (
            match reused_payload ctx [ a ] with
            | Some decoded -> [ decoded ]
            | None -> positional ())
        | _ -> ( match positional () with [] -> listed () | args -> args)
      in
      Value.array_of_list (List.concat_map iex_payload payloads)
  | "invoke-command" -> (
      match param_value (params ()) [ "scriptblock" ] with
      | Some sb ->
          Value.array_of_list
            (invoke_script_block ctx (script_block_of_value ctx sb) [] ~input)
      | None -> (
          match positional () with
          | [ v ] ->
              Value.array_of_list
                (invoke_script_block ctx (script_block_of_value ctx v) [] ~input)
          | _ -> [||]))
  | "write-output" | "write-object" ->
      Array.append input
        (Value.array_of_list (List.concat_map enumerate (positional ())))
  | "write-host" | "write-verbose" | "write-debug" | "write-warning"
  | "write-error" | "write-information" ->
      (* the joined text is built here, unlike what Write-Output passes on *)
      let text =
        Value.Str
          (String.concat " " (List.map Value.to_string (listed () @ positional ())))
      in
      Env.built env text;
      Env.sink env text;
      [||]
  | "out-null" -> [||]
  | "out-string" ->
      let text =
        Value.Str
          (String.concat "\r\n"
             (List.map Value.to_string (listed () @ positional ())))
      in
      Env.built env text;
      [| text |]
  | "out-host" | "out-default" ->
      Array.iter (Env.sink env) input;
      [||]
  | "foreach-object" -> (
      let block =
        match param_value (params ()) [ "process" ] with
        | Some v -> Some v
        | None -> ( match positional () with b :: _ -> Some b | [] -> None)
      in
      match block with
      | None -> [||]
      | Some b -> (
          match b with
          | Value.Script_block sb ->
              let block = stage_block ctx sb in
              let out = outbuf ~expected:(Array.length input) () in
              Env.keeping_cursors env (fun () ->
                  for i = 0 to Array.length input - 1 do
                    run_stage_block ctx block out (Array.unsafe_get input i)
                  done);
              contents out
          | member ->
              (* ForEach-Object membername *)
              let mname = Strcase.lower (Value.to_string member) in
              Value.map_array
                (fun item ->
                  match Members.get_property item mname with
                  | Some v -> v
                  | None -> (
                      match Members.invoke_method env item mname [] with
                      | Some v -> v
                      | None -> Value.Null))
                input))
  | "where-object" -> (
      match positional () with
      | [ Value.Script_block sb ] ->
          let block = stage_block ctx sb in
          let test = outbuf () and out = outbuf () in
          Env.keeping_cursors env (fun () ->
              for i = 0 to Array.length input - 1 do
                let item = Array.unsafe_get input i in
                test.len <- 0;
                run_stage_block ctx block test item;
                if truthy test then emit out item
              done);
          contents out
      | _ -> input)
  | "select-object" -> (
      let ps = params () in
      match param_value ps [ "first" ] with
      | Some n ->
          let n = Value.to_int n in
          (* a negative count takes everything *)
          if n < 0 || n >= Array.length input then input else Array.sub input 0 n
      | None -> (
          match param_value ps [ "last" ] with
          | Some n ->
              let n = Value.to_int n in
              let len = Array.length input in
              let keep = max 0 (min len n) in
              Array.sub input (len - keep) keep
          | None -> input))
  | "sort-object" ->
      Value.array_of_list (List.sort (fun a b -> Value.compare_loose a b) (listed ()))
  | "measure-object" -> [| Value.Int (Array.length input) |]
  | "get-random" -> (
      (* deterministic: evaluation must be reproducible *)
      match param_value (params ()) [ "maximum" ] with
      | Some m -> [| Value.Int (Value.to_int m / 2) |]
      | None ->
          if Array.length input = 0 then [| Value.Int 42 |]
          else [| input.(Array.length input / 2) |])
  | "get-date" -> [| Value.Str "01/01/2021 00:00:00" |]
  | "new-object" -> (
      let ps = params () in
      let type_name, ctor_args =
        match param_value ps [ "typename" ] with
        | Some t -> (Value.to_string t, [])
        | None -> (
            match positional () with
            | t :: args -> (Value.to_string t, args)
            | [] -> eval_fail "New-Object requires a type name")
      in
      let ctor_args =
        match param_value ps [ "argumentlist" ] with
        | Some v -> Value.to_list v
        | None -> (
            (* `New-Object Type(a, b)` parses as two positionals, the second
               being an array — PowerShell binds it to -ArgumentList *)
            match ctor_args with
            | [ Value.Arr a ] -> Array.to_list a
            | args -> args)
      in
      [| construct_object ctx (Psparse.Names.type_key type_name) ctor_args |])
  | _ -> Value.array_of_list (run_other_builtin ctx ~key ~elements ~input:(listed ()))

(* the builtins that are not stages over their input's items *)
and run_other_builtin ctx ~(key : A.command_key) ~elements ~input =
  let env = ctx.env in
  let lname = key.A.cmd_builtin in
  let positional () = eval_elements_positional ctx elements in
  let params () = eval_elements_parameters ctx elements in
  match lname with
  | "convertto-securestring" -> (
      let ps = params () in
      let source =
        match param_value ps [ "string" ] with
        | Some s -> Some s
        | None -> ( match positional () with s :: _ -> Some s | [] -> (
            match input with s :: _ -> Some s | [] -> None))
      in
      match source with
      | None -> eval_fail "ConvertTo-SecureString requires input"
      | Some s ->
          let text = Value.to_string s in
          if has_switch ps [ "asplaintext" ] then [ Value.Secure_string text ]
          else if has_switch ps [ "key"; "securekey" ] then
            (* blob produced by ConvertFrom-SecureString -Key *)
            match String.index_opt text '|' with
            | Some bar when String.length text > bar + 1 -> (
                let b64 = String.sub text (bar + 1) (String.length text - bar - 1) in
                match Encoding.Base64.decode b64 with
                | Ok bytes -> [ Value.Secure_string (Encoding.Utf16.decode_lossy bytes) ]
                | Error msg -> eval_fail "bad SecureString blob: %s" msg)
            | _ -> eval_fail "unrecognised SecureString blob"
          else [ Value.Secure_string text ])
  | "convertfrom-securestring" -> (
      let source = match input with s :: _ -> Some s | [] -> (match positional () with s :: _ -> Some s | [] -> None) in
      match source with
      | Some (Value.Secure_string s) ->
          [ Value.Str ("76492d1116743f0423413b16050a5345" ^ "|" ^ Encoding.Base64.encode (Encoding.Utf16.encode s)) ]
      | _ -> eval_fail "ConvertFrom-SecureString requires a SecureString")
  | "get-variable" -> (
      let ps = params () in
      let name =
        match param_value ps [ "name" ] with
        | Some n -> Value.to_string n
        | None -> (
            match positional () with
            | n :: _ -> Value.to_string n
            | [] -> eval_fail "Get-Variable requires a name")
      in
      match Env.get_var env (Psparse.Names.var_key name) with
      | Some v -> [ v ]
      | None -> eval_fail "variable %s not found" name)
  | "set-variable" | "new-variable" -> (
      let ps = params () in
      let name = match param_value ps [ "name" ] with
        | Some n -> Some (Value.to_string n)
        | None -> ( match positional () with n :: _ -> Some (Value.to_string n) | [] -> None)
      in
      let value = match param_value ps [ "value" ] with
        | Some v -> Some v
        | None -> ( match positional () with _ :: v :: _ -> Some v | _ -> None)
      in
      match (name, value) with
      | Some n, Some v ->
          Env.set_var env (Psparse.Names.var_key n) v;
          []
      | Some n, None ->
          Env.set_var env (Psparse.Names.var_key n) Value.Null;
          []
      | None, _ -> eval_fail "Set-Variable requires a name")
  | "get-alias" -> (
      match positional () with
      | n :: _ -> (
          match Pslex.Aliases.resolve (Value.to_string n) with
          | Some full -> [ Value.Str full ]
          | None -> eval_fail "alias not found")
      | [] -> [])
  | "get-command" -> (
      match positional () with
      | n :: _ -> [ Value.Str (Value.to_string n) ]
      | [] -> [])
  | "get-host" ->
      [ Value.Obj { Value.otype = "System.Management.Automation.Internal.Host.InternalHost"; okind = Value.Generic } ]
  | "add-type" -> []
  | "start-sleep" ->
      let seconds =
        let ps = params () in
        match param_value ps [ "seconds" ] with
        | Some s -> Value.to_float s
        | None -> (
            match param_value ps [ "milliseconds" ] with
            | Some ms -> Value.to_float ms /. 1000.0
            | None -> ( match positional () with s :: _ -> Value.to_float s | [] -> 1.0))
      in
      Env.record env (Env.Sleep seconds);
      []
  | "start-process" ->
      let target = String.concat " " (List.map Value.to_string (positional ())) in
      Env.record env (Env.Process_start target);
      []
  | "stop-process" | "stop-service" | "restart-computer" | "stop-computer" ->
      Env.record env (Env.Process_start lname);
      []
  | "invoke-webrequest" | "invoke-restmethod" -> (
      let ps = params () in
      let uri =
        match param_value ps [ "uri"; "usebasicparsing" ] with
        | Some u when Value.to_string u <> "" -> Value.to_string u
        | _ -> ( match positional () with u :: _ -> Value.to_string u | [] -> "")
      in
      Env.record env (Env.Http_get uri);
      let outfile = param_value ps [ "outfile" ] in
      match outfile with
      | Some f ->
          Env.record env (Env.File_write (Value.to_string f));
          []
      | None -> [ Value.Str (Printf.sprintf "# downloaded from %s" uri) ])
  | "get-content" -> (
      match positional () with
      | p :: _ ->
          let path = Value.to_string p in
          Env.record env (Env.File_read path);
          [ Value.Str (synthetic_file_content path) ]
      | [] -> [])
  | "set-content" | "add-content" | "out-file" -> (
      let ps = params () in
      let path =
        match param_value ps [ "path"; "filepath"; "literalpath" ] with
        | Some p -> Value.to_string p
        | None -> ( match positional () with p :: _ -> Value.to_string p | [] -> "unknown")
      in
      Env.record env (Env.File_write path);
      [])
  | "new-item" | "remove-item" | "copy-item" | "move-item" | "rename-item" -> (
      match positional () with
      | p :: _ ->
          Env.record env (Env.File_write (Value.to_string p));
          []
      | [] -> [])
  | "new-itemproperty" | "set-itemproperty" -> (
      let ps = params () in
      let path =
        match param_value ps [ "path" ] with
        | Some p -> Value.to_string p
        | None -> ( match positional () with p :: _ -> Value.to_string p | [] -> "")
      in
      Env.record env (Env.Registry_write path);
      [])
  | "get-itemproperty" | "get-item" -> []
  | "test-path" -> [ Value.Bool false ]
  | "join-path" -> (
      match positional () with
      | a :: b :: _ -> [ Value.Str (Value.to_string a ^ "\\" ^ Value.to_string b) ]
      | _ -> [])
  | "split-path" -> (
      match positional () with
      | p :: _ -> (
          let s = Value.to_string p in
          match String.rindex_opt s '\\' with
          | Some i -> [ Value.Str (String.sub s 0 i) ]
          | None -> [ Value.Str "" ])
      | [] -> [])
  | "get-process" | "get-service" | "get-wmiobject" | "get-ciminstance" -> []
  | "get-location" -> [ Value.Str "C:\\Users\\user" ]
  | "set-location" | "push-location" | "pop-location" -> []
  | "clear-host" | "clear-variable" | "remove-variable" -> []
  | "select-string" -> (
      match positional () with
      | pat :: _ ->
          let pattern = Value.to_string pat in
          let r = Ops.compile_regex pattern in
          let charge = Env.charge_matcher env in
          List.filter (fun v -> Regexen.Regex.is_match ~charge r (Value.to_string v)) input
      | [] -> input)
  | "powershell" | "powershell.exe" | "pwsh" | "pwsh.exe" ->
      (match env.Env.mode with
      | Env.Sandbox -> Env.record env (Env.Process_start "powershell")
      | Env.Recovery -> Env.taint env);
      run_powershell_exe ctx ~elements
  | "cmd" | "cmd.exe" ->
      let args = String.concat " " (List.map Value.to_string (positional ())) in
      Env.record env (Env.Process_start ("cmd " ^ args));
      []
  | _ ->
      (match env.Env.mode with
      | Env.Recovery ->
          Env.taint env;
          eval_fail "unknown command '%s'" key.A.cmd_name
      | Env.Sandbox ->
          (* unresolved commands are otherwise invisible to the sandbox;
             the effect log needs them so a rewrite that drops or alters
             one shows up as a behavioural divergence.  They are logged
             under the alias-resolved name, so expanding an alias is not
             a divergence. *)
          Env.log_command env lname
            (List.map Value.to_string (positional ()));
          if Strcase.ends_with ~suffix:".exe" lname then
            Env.record env (Env.Process_start key.A.cmd_name));
      []

(* ForEach-Object / Where-Object run their blocks in the CALLER's scope in
   PowerShell (assignments leak; [$_] and [$input] are put back by
   {!Env.keeping_cursors}); no new scope here.  The block's context,
   statements and cursors are resolved once per pipeline; each item is
   then one tick, [$_] bound to it, [$input] bound to a fresh one-element
   array, and the statements run. *)
and stage_block ctx (sb : Value.sb) =
  { block_ctx = { ctx with src = sb.Value.sb_src; src_exact = false };
    statements = sb.Value.sb_ast.A.sb_statements;
    item_cursor = Env.cursor Env.item_var;
    input_cursor = Env.cursor Env.input_var }

(* The block's output for [item] appended to [out]: [collect out] of
   [eval_statements] on the block's statements, with [$_] and [$input]
   bound, each statement's output appended as it ends and a pipeline's
   items without a list.  A [return] keeps its own output alone. *)
and run_stage_block ctx block out item =
  Env.tick ctx.env;
  Env.set_cursor ctx.env block.item_cursor item;
  Env.set_cursor ctx.env block.input_cursor (Value.Arr [| item |]);
  let mark = out.len in
  try emit_statements block.block_ctx out block.statements
  with Return_exc vs ->
    out.len <- mark;
    collect out vs

and emit_statements ctx out = function
  | [] -> ()
  | stmt :: rest ->
      (match stmt.A.node with
      | A.Pipeline elems -> emit_items out (pipeline_statement ctx stmt elems)
      | _ -> collect out (eval_statement ctx stmt));
      emit_statements ctx out rest

(* [key] is the type's lookup key ({!Psparse.Names.type_key}) *)
and construct_object ctx key args =
  match key with
  | "net.webclient" ->
      Value.Obj { Value.otype = "System.Net.WebClient"; okind = Value.Web_client }
  | "io.memorystream" -> (
      match args with
      | [] ->
          Value.Obj
            { Value.otype = "System.IO.MemoryStream";
              okind = Value.Memory_stream { Value.data = ""; pos = 0 } }
      | [ v ] ->
          Value.Obj
            { Value.otype = "System.IO.MemoryStream";
              okind = Value.Memory_stream { Value.data = Value.value_to_bytes v; pos = 0 } }
      | _ -> eval_fail "MemoryStream: bad constructor arguments")
  | "io.compression.deflatestream" -> (
      match args with
      | stream :: _ -> (
          let data =
            match stream with
            | Value.Obj { okind = Value.Memory_stream st; _ } -> st.Value.data
            | v -> Value.value_to_bytes v
          in
          match Encoding.Inflate.inflate data with
          | Ok inflated ->
              Value.Obj
                { Value.otype = "System.IO.Compression.DeflateStream";
                  okind = Value.Deflate_stream { Value.data = inflated; pos = 0 } }
          | Error msg -> eval_fail "DeflateStream: %s" msg)
      | [] -> eval_fail "DeflateStream: bad constructor arguments")
  | "io.compression.gzipstream" -> (
      match args with
      | stream :: _ -> (
          let data =
            match stream with
            | Value.Obj { okind = Value.Memory_stream st; _ } -> st.Value.data
            | v -> Value.value_to_bytes v
          in
          (* gzip = 10-byte header + deflate + trailer *)
          let body =
            if String.length data > 18 then String.sub data 10 (String.length data - 18)
            else data
          in
          match Encoding.Inflate.inflate body with
          | Ok inflated ->
              Value.Obj
                { Value.otype = "System.IO.Compression.GzipStream";
                  okind = Value.Gzip_stream { Value.data = inflated; pos = 0 } }
          | Error msg -> eval_fail "GzipStream: %s" msg)
      | [] -> eval_fail "GzipStream: bad constructor arguments")
  | "io.streamreader" -> (
      match args with
      | stream :: _ -> (
          match stream with
          | Value.Obj { okind = Value.Memory_stream st; _ }
          | Value.Obj { okind = Value.Deflate_stream st; _ }
          | Value.Obj { okind = Value.Gzip_stream st; _ } ->
              Value.Obj
                { Value.otype = "System.IO.StreamReader";
                  okind = Value.Stream_reader { Value.data = st.Value.data; pos = st.Value.pos } }
          | Value.Str path ->
              Env.record ctx.env (Env.File_read path);
              Value.Obj
                { Value.otype = "System.IO.StreamReader";
                  okind = Value.Stream_reader { Value.data = synthetic_file_content path; pos = 0 } }
          | v -> eval_fail "StreamReader over %s unsupported" (Value.type_name v))
      | [] -> eval_fail "StreamReader: missing constructor argument")
  | "text.asciiencoding" -> Value.Obj { Value.otype = "System.Text.ASCIIEncoding"; okind = Value.Encoding_obj Value.Enc_ascii }
  | "text.utf8encoding" -> Value.Obj { Value.otype = "System.Text.UTF8Encoding"; okind = Value.Encoding_obj Value.Enc_utf8 }
  | "text.unicodeencoding" -> Value.Obj { Value.otype = "System.Text.UnicodeEncoding"; okind = Value.Encoding_obj Value.Enc_unicode }
  | "random" -> Value.Obj { Value.otype = "System.Random"; okind = Value.Generic }
  | "net.sockets.tcpclient" -> (
      (match args with
      | [ host; port ] ->
          Env.record ctx.env
            (Env.Tcp_connect (Value.to_string host, Value.to_int port))
      | _ -> ());
      Value.Obj { Value.otype = "System.Net.Sockets.TcpClient"; okind = Value.Generic })
  | _ -> Value.Obj { Value.otype = type_display_name key; okind = Value.Generic }

(* ---------- entry points ---------- *)

let describe_exception = function
  | Env.Eval_error m -> Some ("evaluation error: " ^ m)
  | Env.Blocked m -> Some ("blocked side effect: " ^ m)
  | Env.Limit_exceeded m -> Some ("limit exceeded: " ^ m)
  | Ops.Op_error m -> Some ("operator error: " ^ m)
  | Value.Conversion_error m -> Some ("conversion error: " ^ m)
  | Casts.Cast_error m -> Some ("cast error: " ^ m)
  | Statics.Static_error m -> Some ("static member error: " ^ m)
  | Members.Member_error m -> Some ("member error: " ^ m)
  | Format_op.Format_error m -> Some ("format error: " ^ m)
  | Regexen.Regex.Parse_error m -> Some ("regex error: " ^ m)
  | Failure m -> Some ("failure: " ^ m)
  | Invalid_argument m -> Some ("invalid argument: " ^ m)
  | Stack_overflow -> Some "stack exhausted"
  | _ -> None

let run_ast env ~src ast =
  let ctx = { env; src; src_exact = true } in
  try eval_statement ctx ast with Return_exc out -> out | Exit_exc -> []

let eval_parsed env ~src ast =
  match run_ast env ~src ast with
  | out -> Ok out
  | exception Throw_exc v -> Error ("uncaught throw: " ^ Value.to_string v)
  | exception e -> (
      match describe_exception e with
      | Some msg -> Error msg
      | None -> raise e)

(* The parse of a piece, with a failure rendered as the error text the
   evaluation would report.  Pure and environment-independent, so callers
   may memoise it on the text and run one parse in any number of envs.
   Split into its lexer run and its parse, so a caller that also scans
   the tokens lexes the piece once. *)
let syntax_error ~position message =
  Error (Printf.sprintf "syntax error at %d: %s" position message)

let stack_exhausted = Error "stack exhausted while parsing"

let lex_piece src =
  match Pslex.Lexer.tokenize src with
  | exception Stack_overflow -> stack_exhausted
  | Error e -> syntax_error ~position:e.Pslex.Lexer.position e.Pslex.Lexer.message
  | Ok toks -> Ok toks

let parse_lexed_piece src toks =
  match Psparse.Parser.parse_tokens src toks with
  | exception Stack_overflow -> stack_exhausted
  | Error e ->
      syntax_error ~position:e.Psparse.Parser.position e.Psparse.Parser.message
  | Ok ast -> Ok ast

let parse_piece src = Result.bind (lex_piece src) (parse_lexed_piece src)

let run_parsed env ~src parsed =
  (* chaos probe: an injected fault here propagates out of the interpreter
     exactly like a genuine evaluation blow-up, exercising the enclosing
     guards' containment paths.  Drawn before a parse error is returned. *)
  Pscommon.Chaos.probe "interp.eval";
  match parsed with Error msg -> Error msg | Ok ast -> eval_parsed env ~src ast

let run_script env src = run_parsed env ~src (parse_piece src)

let invoke_parsed env ~src parsed =
  let module T = Pscommon.Telemetry in
  let sid =
    if T.active () then
      T.span_begin "interp.invoke_piece"
        ~attrs:
          [ ("depth", T.I env.Env.invoke_depth);
            ("bytes", T.I (String.length src)) ]
    else 0
  in
  let result =
    match run_parsed env ~src parsed with
    | Ok out -> Ok (Value.of_list out)
    | Error msg -> Error msg
  in
  if sid <> 0 then
    T.span_end sid
      ~attrs:
        [ ("steps", T.I env.Env.steps);
          ("ok", T.B (Result.is_ok result)) ];
  result

(** Execute a recoverable piece and return its output — the paper's
    "Recovery Based on Invoke" (§III-B2). *)
let invoke_piece env src = invoke_parsed env ~src (parse_piece src)

(* A piece whose parse is one pipeline statement: the argument of an
   Invoke-Expression, or the prefix of `… | iex`, parsed on its own *)
let lone_pipeline = function
  | Ok
      { A.node =
          A.Script_block
            { A.sb_params = [];
              sb_statements = [ ({ A.node = A.Pipeline stages; _ } as stmt) ];
              _ };
        _ } ->
      Some (stmt, stages)
  | Ok _ | Error _ -> None

let invoke_payload env ~src parsed =
  match lone_pipeline parsed with
  | None -> (invoke_parsed env ~src parsed, None)
  | Some (target, stages) ->
      let probe = Env.start_probe env ~target in
      let result =
        Fun.protect
          ~finally:(fun () -> env.Env.probe <- None)
          (fun () -> invoke_parsed env ~src parsed)
      in
      ( result,
        match result with
        | Ok (Value.Str s) ->
            Option.map
              (fun p -> (Psast.Eval_digest.pipeline stages, p))
              (Env.finish_probe env probe s)
        | Ok _ | Error _ -> None )
