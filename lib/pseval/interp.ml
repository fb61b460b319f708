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

type ctx = { env : Env.t; src : string }

let eval_fail fmt = Printf.ksprintf (fun s -> raise (Env.Eval_error s)) fmt

let node_text ctx (t : A.t) = A.text ctx.src t

(* provenance stamping: one option load per variable write when no recorder
   is installed, so the plane is free on production recovery paths.  [rhs]
   (when given) contributes its variable reads to the dependency set;
   [also_reads] adds names the node shape implies (compound assignment and
   ++/-- read their own target). *)
let note_write ctx ?rhs ?(also_reads = []) ~extent name =
  match ctx.env.Env.provenance with
  | None -> ()
  | Some p ->
      let reads =
        also_reads @ (match rhs with Some r -> Provenance.read_vars r | None -> [])
      in
      Provenance.note p ~var:name ~extent ~step:ctx.env.Env.steps ~reads

(* pipeline-boundary enumeration: arrays stream element-wise *)
let enumerate v = Value.to_list v

(* ---------- expressions ---------- *)

(* every expression result passes one O(1) size check: string concat, -join,
   -f, array append, member calls — all the paths a decode bomb can grow
   through — are bounded without instrumenting each operator *)
let rec eval_expr ctx (t : A.t) : Value.t =
  let v = eval_expr_unchecked ctx t in
  Env.check_size ctx.env v;
  v

and eval_expr_unchecked ctx (t : A.t) : Value.t =
  Env.tick ctx.env;
  match t.A.node with
  | A.String_const (s, _) -> Value.Str s
  | A.Number_const (A.Int_lit n) -> Value.Int n
  | A.Number_const (A.Float_lit f) -> Value.Float f
  | A.Expandable_string (_, parts) ->
      let buf = Buffer.create 32 in
      List.iter
        (fun part ->
          match part with
          | A.Part_text s -> Buffer.add_string buf s
          | A.Part_variable (v, _) ->
              Buffer.add_string buf (Value.to_string (read_variable ctx v.A.var_name))
          | A.Part_subexpr e -> Buffer.add_string buf (Value.to_string (eval_expr ctx e)))
        parts;
      Value.Str (Buffer.contents buf)
  | A.Variable_expr v -> read_variable ctx v.A.var_name
  | A.Binary_expr (op, sensitivity, a, b) -> eval_binary ctx op sensitivity a b
  | A.Unary_expr (op, operand) -> eval_unary ctx op operand
  | A.Postfix_expr (op, operand) -> eval_postfix ctx op operand
  | A.Convert_expr (type_name, inner) -> (
      let v = eval_expr ctx inner in
      match Casts.normalize_type type_name with
      | "io.compression.deflatestream" | "io.streamreader" ->
          (* cast form of stream construction is rare; treat like New-Object
             with a single argument *)
          construct_object ctx type_name [ v ]
      | _ -> Casts.cast type_name v)
  | A.Type_literal name ->
      Value.Obj { Value.otype = type_display_name name; okind = Value.Generic }
  | A.Member_access (obj, member, static) ->
      eval_member_access ctx t obj member static
  | A.Invoke_member (obj, member, args, static) ->
      eval_invoke_member ctx t obj member args static
  | A.Index_expr (obj, idx) ->
      let container = eval_expr ctx obj in
      let index = eval_expr ctx idx in
      Ops.index_value container index
  | A.Array_literal elems ->
      Value.Arr (Array.of_list (List.map (eval_expr ctx) elems))
  | A.Array_expr stmts ->
      Value.Arr (Array.of_list (eval_statements ctx stmts))
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
      | _ -> Value.of_list (eval_statement ctx stmt))
  | A.Script_block_expr sb ->
      let text = strip_braces (node_text ctx t) in
      Value.Script_block { Value.sb_ast = sb; sb_text = text }
  | A.Pipeline _ | A.Command _ | A.Command_expression _ ->
      Value.of_list (eval_statement ctx t)
  | _ -> eval_fail "cannot evaluate %s as an expression" (A.kind_name t)

and strip_braces text =
  let text = String.trim text in
  if String.length text >= 2 && text.[0] = '{' && text.[String.length text - 1] = '}'
  then String.sub text 1 (String.length text - 2)
  else text

and type_display_name name =
  let n = Casts.normalize_type name in
  "System." ^ String.concat "." (List.map String.capitalize_ascii (String.split_on_char '.' n))

and read_variable ctx name =
  match Strcase.lower name with
  | "args" -> (
      match Env.get_var ctx.env "args" with Some v -> v | None -> Value.Arr [||])
  | "input" -> (
      match Env.get_var ctx.env "input" with Some v -> v | None -> Value.Arr [||])
  | "ofs" -> Value.Str " "
  | _ -> (
      match Env.get_var ctx.env name with
      | Some v -> v
      | None -> (
          match ctx.env.Env.mode with
          | Env.Recovery -> eval_fail "undefined variable $%s" name
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
      | A.Mul -> Ops.multiply va vb
      | A.Div -> Ops.divide va vb
      | A.Mod -> Ops.modulo va vb
      | A.Format -> Value.Str (Format_op.format (Value.to_string va) (Value.to_list vb))
      | A.Range -> Ops.range ctx.env.Env.limits.Env.max_collection va vb
      | A.Eq | A.Ne | A.Gt | A.Ge | A.Lt | A.Le | A.Like | A.Notlike | A.Match
      | A.Notmatch ->
          Ops.comparison op sensitivity va vb
      | A.Replace -> Ops.replace_op sensitivity va vb
      | A.Split -> Ops.split_op sensitivity va vb
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
          match vb with
          | Value.Obj { Value.otype; _ } -> (
              try Casts.cast otype va with Casts.Cast_error _ -> Value.Null)
          | v -> ( try Casts.cast (Value.to_string v) va with Casts.Cast_error _ -> Value.Null))
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
          let old = try Value.to_int (read_variable ctx v.A.var_name) with _ -> 0 in
          Env.set_var ctx.env v.A.var_name (Value.Int (old + delta));
          note_write ctx ~also_reads:[ v.A.var_name ] ~extent:operand.A.extent
            v.A.var_name;
          Value.Int (old + delta)
      | _ -> eval_fail "++/-- requires a variable")

and eval_postfix ctx op operand =
  let delta = if op = A.Incr then 1 else -1 in
  match operand.A.node with
  | A.Variable_expr v ->
      let old = try Value.to_int (read_variable ctx v.A.var_name) with _ -> 0 in
      Env.set_var ctx.env v.A.var_name (Value.Int (old + delta));
      note_write ctx ~also_reads:[ v.A.var_name ] ~extent:operand.A.extent
        v.A.var_name;
      Value.Int old
  | _ -> eval_fail "++/-- requires a variable"

and member_name ctx member =
  match member with
  | A.Member_name n -> n
  | A.Member_dynamic e -> Value.to_string (eval_expr ctx e)

and eval_member_access ctx whole obj member static =
  let name = member_name ctx member in
  if static then begin
    match obj.A.node with
    | A.Type_literal type_name -> (
        match Statics.get_static type_name name with
        | Some v -> v
        | None -> eval_fail "unknown static member [%s]::%s" type_name name)
    | _ -> eval_fail "static member access requires a type literal"
  end
  else begin
    let v = eval_expr ctx obj in
    match Members.get_property v name with
    | Some result -> result
    | None -> (
        match Strcase.lower name with
        | "length" | "count" -> Value.Int 1  (* scalars have Length 1 in PS *)
        | _ -> (
            match ctx.env.Env.mode with
            | Env.Recovery ->
                eval_fail "unknown property '%s' on %s (%s)" name
                  (Value.type_name v)
                  (String.trim (node_text ctx whole))
            | Env.Sandbox -> Value.Null))
  end

and eval_invoke_member ctx whole obj member args static =
  let name = member_name ctx member in
  let arg_values = List.map (eval_expr ctx) args in
  if static then begin
    match obj.A.node with
    | A.Type_literal type_name -> (
        match Statics.invoke_static ctx.env type_name name arg_values with
        | Some v -> v
        | None -> eval_fail "unknown static method [%s]::%s" type_name name)
    | _ -> eval_fail "static method call requires a type literal"
  end
  else begin
    let v = eval_expr ctx obj in
    match (v, Strcase.lower name) with
    | Value.Script_block sb, ("invoke" | "invokereturnasis") ->
        Value.of_list (invoke_script_block ctx sb arg_values ~input:[])
    | _ -> (
        match Members.invoke_method ctx.env v name arg_values with
        | Some result -> result
        | None -> (
            match ctx.env.Env.mode with
            | Env.Recovery ->
                eval_fail "unknown method '%s' on %s (%s)" name (Value.type_name v)
                  (String.trim (node_text ctx whole))
            | Env.Sandbox -> Value.Null))
  end

(* ---------- script blocks & functions ---------- *)

and invoke_script_block ctx (sb : Value.sb) args ~input =
  Env.with_scope ctx.env (fun () ->
      let params = sb.Value.sb_ast.A.sb_params in
      bind_parameters ctx params args;
      Env.set_var ctx.env "input" (Value.Arr (Array.of_list input));
      let inner_ctx = { ctx with src = sb.Value.sb_text } in
      (* script-block ASTs parsed from their own text keep extents relative
         to that text *)
      let stmts = sb.Value.sb_ast.A.sb_statements in
      try eval_statements inner_ctx stmts with Return_exc out -> out)

and bind_parameters ctx params args =
  let rec bind params args =
    match (params, args) with
    | [], rest -> Env.set_var ctx.env "args" (Value.Arr (Array.of_list rest))
    | p :: ps, a :: rest ->
        Env.set_var ctx.env p a;
        bind ps rest
    | p :: ps, [] ->
        Env.set_var ctx.env p Value.Null;
        bind ps []
  in
  bind params args

and invoke_function ctx (fn : Env.fn) args ~input =
  Env.with_scope ctx.env (fun () ->
      bind_parameters ctx fn.Env.fn_params args;
      Env.set_var ctx.env "input" (Value.Arr (Array.of_list input));
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
          let out = ref [] in
          List.iter (fun b -> out := !out @ eval_statement ctx b) (named "begin");
          List.iter
            (fun item ->
              Env.set_var ctx.env "_" item;
              List.iter (fun b -> out := !out @ eval_statement ctx b) process_blocks)
            input;
          List.iter (fun b -> out := !out @ eval_statement ctx b) (named "end");
          !out
        with Return_exc out -> out
      end
      else try eval_statements ctx body_stmts with Return_exc out -> out)

(* ---------- statements ---------- *)

and eval_statements ctx stmts = List.concat_map (eval_statement ctx) stmts

and bind_param_defaults ctx names =
  List.iter
    (fun n ->
      match Env.get_var ctx.env n with
      | Some _ -> ()
      | None -> Env.set_var ctx.env n Value.Null)
    names

and eval_statement ctx (t : A.t) : Value.t list =
  Env.tick ctx.env;
  match t.A.node with
  | A.Script_block sb ->
      bind_param_defaults ctx sb.A.sb_params;
      eval_statements ctx sb.A.sb_statements
  | A.Named_block (_, body) -> eval_statement ctx body
  | A.Statement_block stmts -> eval_statements ctx stmts
  | A.Pipeline [ { A.node = A.Command_expression
                     { A.node = A.Postfix_expr ((A.Incr | A.Decr), _)
                              | A.Unary_expr ((A.Incr | A.Decr), _); _ }; _ } ] ->
      ignore (eval_pipeline ctx (match t.A.node with A.Pipeline e -> e | _ -> []));
      []
  | A.Pipeline elems -> eval_pipeline ctx elems
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
      let out = ref [] in
      (try
         while Value.to_bool (Value.of_list (eval_statement ctx cond)) do
           Env.tick ctx.env;
           try out := !out @ eval_statement ctx body
           with Continue_exc -> ()
         done
       with Break_exc -> ());
      !out
  | A.Do_while_stmt (body, cond) ->
      let out = ref [] in
      (try
         let continue = ref true in
         while !continue do
           Env.tick ctx.env;
           (try out := !out @ eval_statement ctx body with Continue_exc -> ());
           continue := Value.to_bool (Value.of_list (eval_statement ctx cond))
         done
       with Break_exc -> ());
      !out
  | A.Do_until_stmt (body, cond) ->
      let out = ref [] in
      (try
         let continue = ref true in
         while !continue do
           Env.tick ctx.env;
           (try out := !out @ eval_statement ctx body with Continue_exc -> ());
           continue := not (Value.to_bool (Value.of_list (eval_statement ctx cond)))
         done
       with Break_exc -> ());
      !out
  | A.For_stmt (init, cond, step, body) ->
      (match init with Some s -> ignore (eval_statement ctx s) | None -> ());
      let out = ref [] in
      (try
         let check () =
           match cond with
           | Some c -> Value.to_bool (Value.of_list (eval_statement ctx c))
           | None -> true
         in
         while check () do
           Env.tick ctx.env;
           (try out := !out @ eval_statement ctx body with Continue_exc -> ());
           match step with Some s -> ignore (eval_statement ctx s) | None -> ()
         done
       with Break_exc -> ());
      !out
  | A.Foreach_stmt (var, coll, body) ->
      let items = enumerate (Value.of_list (eval_statement ctx coll)) in
      let var_name =
        match var.A.node with
        | A.Variable_expr v -> v.A.var_name
        | _ -> eval_fail "foreach requires a variable"
      in
      let out = ref [] in
      (try
         List.iter
           (fun item ->
             Env.tick ctx.env;
             Env.set_var ctx.env var_name item;
             note_write ctx ~rhs:coll ~extent:var.A.extent var_name;
             try out := !out @ eval_statement ctx body with Continue_exc -> ())
           items
       with Break_exc -> ());
      !out
  | A.Switch_stmt (value, cases, default) ->
      let subjects = enumerate (Value.of_list (eval_statement ctx value)) in
      let out = ref [] in
      (try
         List.iter
           (fun subject ->
             Env.set_var ctx.env "_" subject;
             let matched = ref false in
             List.iter
               (fun (pat, body) ->
                 let hit =
                   match pat.A.node with
                   | A.Script_block_expr sb ->
                       Value.to_bool
                         (Value.of_list
                            (invoke_script_block ctx
                               { Value.sb_ast = sb; sb_text = strip_braces (node_text ctx pat) }
                               [] ~input:[ subject ]))
                   | _ ->
                       let pv = eval_expr ctx pat in
                       Value.equal_loose pv subject
                 in
                 if hit then begin
                   matched := true;
                   try out := !out @ eval_statement ctx body with Continue_exc -> ()
                 end)
               cases;
             if not !matched then
               match default with
               | Some body -> (
                   try out := !out @ eval_statement ctx body with Continue_exc -> ())
               | None -> ())
           subjects
       with Break_exc -> ());
      !out
  | A.Function_def (name, params, body) ->
      Env.define_function ctx.env name { Env.fn_params = params; fn_body = body };
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
        Env.set_var ctx.env "_" Value.Null;
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
  | A.Command _ | A.Command_expression _ -> eval_pipeline ctx [ t ]
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
    | A.Times_assign -> Ops.multiply current rhs_value
    | A.Div_assign -> Ops.divide current rhs_value
    | A.Mod_assign -> Ops.modulo current rhs_value
  in
  match lhs.A.node with
  | A.Variable_expr v ->
      let current =
        if op = A.Assign then Value.Null
        else match Env.get_var ctx.env v.A.var_name with Some x -> x | None -> Value.Null
      in
      Env.set_var ctx.env v.A.var_name (combined current);
      note_write ctx ~rhs
        ~also_reads:(if op = A.Assign then [] else [ v.A.var_name ])
        ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
        v.A.var_name
  | A.Convert_expr (type_name, { A.node = A.Variable_expr v; _ }) ->
      Env.set_var ctx.env v.A.var_name (Casts.cast type_name rhs_value);
      note_write ctx ~rhs
        ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
        v.A.var_name
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
                note_write ctx ~rhs ~also_reads:[ v.A.var_name ]
                  ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
                  v.A.var_name
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
              Env.set_var ctx.env v.A.var_name (Value.Hash (filtered @ [ (index, rhs_value) ]));
              note_write ctx ~rhs ~also_reads:[ v.A.var_name ]
                ~extent:(Pscommon.Extent.union lhs.A.extent rhs.A.extent)
                v.A.var_name
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
              Env.set_var ctx.env v.A.var_name value;
              note_write ctx ~rhs
                ~extent:(Pscommon.Extent.union lhs_item.A.extent rhs.A.extent)
                v.A.var_name
          | _ -> eval_fail "unsupported multiple-assignment target")
        vars
  | A.Member_access (_, _, _) -> ()  (* property assignment: ignored *)
  | _ -> eval_fail "unsupported assignment target %s" (A.kind_name lhs)

(* ---------- pipelines & commands ---------- *)

and eval_pipeline ctx elems =
  let rec run input = function
    | [] -> input
    | elem :: rest ->
        let output =
          match elem.A.node with
          | A.Command cmd -> run_command ctx cmd ~input
          | A.Command_expression e -> enumerate (eval_expr ctx e)
          | _ -> enumerate (eval_expr ctx elem)
        in
        run output rest
  in
  run [] elems

and run_command ctx (cmd : A.command) ~input =
  (* evaluate elements *)
  let name_expr, rest =
    match cmd.A.cmd_elements with
    | A.Elem_name n :: rest -> (n, rest)
    | _ -> eval_fail "command without a name"
  in
  let name_value =
    match name_expr.A.node with
    | A.String_const (s, A.Bare) -> Value.Str s
    | _ -> eval_expr ctx name_expr
  in
  match name_value with
  | Value.Script_block sb ->
      let args =
        List.filter_map
          (function A.Elem_argument a -> Some (eval_expr ctx a) | _ -> None)
          rest
      in
      invoke_script_block ctx sb args ~input
  | name_value ->
      let name = Value.to_string name_value in
      let literal =
        match name_expr.A.node with
        | A.String_const (_, A.Bare) -> true
        | _ -> false
      in
      dispatch_command ctx ~name ~elements:rest ~input ~literal
        ~invocation:cmd.A.cmd_invocation

and dispatch_command ctx ~name ~elements ~input ~literal ~invocation =
  ignore invocation;
  let resolved =
    match Pslex.Aliases.resolve name with Some full -> full | None -> name
  in
  let lname = Strcase.lower resolved in
  (* user-defined functions take precedence over builtins *)
  match Env.find_function ctx.env name with
  | Some fn ->
      let args = eval_elements_positional ctx elements in
      invoke_function ctx fn args ~input
  | None -> run_builtin ctx ~lname ~original_name:name ~elements ~input ~literal

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
    | A.Elem_parameter (p, attached) :: rest ->
        let pname =
          let p = Strcase.lower p in
          let p = if String.length p > 0 && p.[0] = '-' then String.sub p 1 (String.length p - 1) else p in
          if String.length p > 0 && p.[String.length p - 1] = ':' then
            String.sub p 0 (String.length p - 1)
          else p
        in
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

and run_iex ctx payload ~input =
  ignore input;
  let env = ctx.env in
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
          let inner_ctx = { ctx with src = payload } in
          try eval_statement inner_ctx ast with Return_exc out -> out))

and decode_encoded_command payload =
  match Encoding.Base64.decode payload with
  | Error msg -> eval_fail "bad -EncodedCommand payload: %s" msg
  | Ok bytes ->
      if Encoding.Utf16.looks_utf16 bytes then Encoding.Utf16.decode_lossy bytes
      else bytes

and run_powershell_exe ctx ~elements ~input =
  (* `powershell -enc <b64>` / -command: parameter prefixes are matched with
     StartsWith, like PowerShell's own auto-completion (paper §III-B4) *)
  let rec walk = function
    | [] -> []
    | A.Elem_parameter (p, attached) :: rest -> (
        let pname =
          let p = Strcase.lower p in
          let p = if p <> "" && p.[0] = '-' then String.sub p 1 (String.length p - 1) else p in
          if p <> "" && p.[String.length p - 1] = ':' then String.sub p 0 (String.length p - 1) else p
        in
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
            run_iex ctx decoded ~input @ walk rest'
        | _, true, Some (v, rest') -> run_iex ctx (Value.to_string v) ~input @ walk rest'
        | _, _, _ -> walk rest)
    | A.Elem_argument a :: rest -> (
        (* a bare string argument to powershell.exe is a command *)
        let v = eval_expr ctx a in
        match v with
        | Value.Str s when String.length s > 0 -> run_iex ctx s ~input @ walk rest
        | _ -> walk rest)
    | _ :: rest -> walk rest
  in
  walk elements

and synthetic_file_content path =
  Printf.sprintf "# content of %s" path

and run_builtin ctx ~lname ~original_name ~elements ~input ~literal =
  let env = ctx.env in
  let positional () = eval_elements_positional ctx elements in
  let params () = eval_elements_parameters ctx elements in
  let iex_payload p =
    let s = Value.to_string p in
    match env.Env.iex_hook with
    | Some hook when hook ~literal s -> []
    | Some _ | None -> run_iex ctx s ~input:[]
  in
  match lname with
  | "invoke-expression" ->
      let payloads =
        match positional () with [] -> input | args -> args
      in
      List.concat_map iex_payload payloads
  | "invoke-command" -> (
      match param_value (params ()) [ "scriptblock" ] with
      | Some sb -> invoke_script_block ctx (script_block_of_value ctx sb) [] ~input
      | None -> (
          match positional () with
          | [ v ] -> invoke_script_block ctx (script_block_of_value ctx v) [] ~input
          | _ -> []))
  | "write-output" | "write-object" ->
      input @ List.concat_map enumerate (positional ())
  | "write-host" | "write-verbose" | "write-debug" | "write-warning"
  | "write-error" | "write-information" ->
      let text =
        String.concat " " (List.map Value.to_string (input @ positional ()))
      in
      Env.sink env (Value.Str text);
      []
  | "out-null" -> []
  | "out-string" ->
      [ Value.Str (String.concat "\r\n" (List.map Value.to_string (input @ positional ()))) ]
  | "out-host" | "out-default" ->
      List.iter (Env.sink env) input;
      []
  | "foreach-object" -> (
      let block =
        match param_value (params ()) [ "process" ] with
        | Some v -> Some v
        | None -> ( match positional () with b :: _ -> Some b | [] -> None)
      in
      match block with
      | None -> []
      | Some b -> (
          match b with
          | Value.Script_block sb ->
              List.concat_map
                (fun item ->
                  Env.tick env;
                  Env.set_var env "_" item;
                  invoke_script_block_no_scope ctx sb ~input:[ item ])
                input
          | member ->
              (* ForEach-Object membername *)
              let mname = Value.to_string member in
              List.map
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
          List.filter
            (fun item ->
              Env.tick env;
              Env.set_var env "_" item;
              Value.to_bool
                (Value.of_list (invoke_script_block_no_scope ctx sb ~input:[ item ])))
            input
      | _ -> input)
  | "select-object" -> (
      let ps = params () in
      let take_first n lst =
        let rec go n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: go (n - 1) rest
        in
        go n lst
      in
      match param_value ps [ "first" ] with
      | Some n -> take_first (Value.to_int n) input
      | None -> (
          match param_value ps [ "last" ] with
          | Some n ->
              let n = Value.to_int n in
              let len = List.length input in
              List.filteri (fun i _ -> i >= len - n) input
          | None -> input))
  | "sort-object" ->
      List.sort (fun a b -> Value.compare_loose a b) input
  | "measure-object" -> [ Value.Int (List.length input) ]
  | "get-random" -> (
      (* deterministic: evaluation must be reproducible *)
      match param_value (params ()) [ "maximum" ] with
      | Some m -> [ Value.Int (Value.to_int m / 2) ]
      | None -> ( match input with [] -> [ Value.Int 42 ] | l -> [ List.nth l (List.length l / 2) ]))
  | "get-date" -> [ Value.Str "01/01/2021 00:00:00" ]
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
      [ construct_object ctx type_name ctor_args ])
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
      match Env.get_var env name with
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
          Env.set_var env n v;
          []
      | Some n, None ->
          Env.set_var env n Value.Null;
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
          List.filter (fun v -> Regexen.Regex.is_match r (Value.to_string v)) input
      | [] -> input)
  | "powershell" | "powershell.exe" | "pwsh" | "pwsh.exe" ->
      (match env.Env.mode with
      | Env.Sandbox -> Env.record env (Env.Process_start "powershell")
      | Env.Recovery -> ());
      run_powershell_exe ctx ~elements ~input
  | "cmd" | "cmd.exe" ->
      let args = String.concat " " (List.map Value.to_string (positional ())) in
      Env.record env (Env.Process_start ("cmd " ^ args));
      []
  | "iex" ->
      (* alias table covers this, but keep a direct route *)
      let payloads = match positional () with [] -> input | args -> args in
      List.concat_map iex_payload payloads
  | _ ->
      (match env.Env.mode with
      | Env.Recovery -> eval_fail "unknown command '%s'" original_name
      | Env.Sandbox ->
          (* unresolved commands are otherwise invisible to the sandbox;
             the effect log needs them so a rewrite that drops or alters
             one shows up as a behavioural divergence *)
          Env.log_command env (Strcase.lower original_name)
            (List.map Value.to_string (positional ()));
          if Strcase.ends_with ~suffix:".exe" lname then
            Env.record env (Env.Process_start original_name));
      []

(* ForEach-Object / Where-Object run their blocks in the CALLER's scope in
   PowerShell ($_ and assignments leak); no new scope here. *)
and invoke_script_block_no_scope ctx (sb : Value.sb) ~input =
  let inner_ctx = { ctx with src = sb.Value.sb_text } in
  Env.set_var ctx.env "input" (Value.Arr (Array.of_list input));
  try eval_statements inner_ctx sb.Value.sb_ast.A.sb_statements
  with Return_exc out -> out

and construct_object ctx type_name args =
  let t = Casts.normalize_type type_name in
  match t with
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
  | other ->
      ignore other;
      Value.Obj { Value.otype = type_display_name type_name; okind = Value.Generic }

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
  let ctx = { env; src } in
  try eval_statement ctx ast with Return_exc out -> out | Exit_exc -> []

let eval_parsed env ~src ast =
  match run_ast env ~src ast with
  | out -> Ok out
  | exception Throw_exc v -> Error ("uncaught throw: " ^ Value.to_string v)
  | exception e -> (
      match describe_exception e with
      | Some msg -> Error msg
      | None -> raise e)

let run_script env src =
  (* chaos probe: an injected fault here propagates out of the interpreter
     exactly like a genuine evaluation blow-up, exercising the enclosing
     guards' containment paths *)
  Pscommon.Chaos.probe "interp.eval";
  match Psparse.Parser.parse src with
  | exception Stack_overflow -> Error "stack exhausted while parsing"
  | Error e ->
      Error
        (Printf.sprintf "syntax error at %d: %s" e.Psparse.Parser.position
           e.Psparse.Parser.message)
  | Ok ast -> eval_parsed env ~src ast

(* [run_script] minus the parse: the same probe, drawn first, and the same
   error texts *)
let run_parsed env ~src ast =
  Pscommon.Chaos.probe "interp.eval";
  eval_parsed env ~src ast

(** Execute a recoverable piece and return its output — the paper's
    "Recovery Based on Invoke" (§III-B2). *)
let invoke_piece env src =
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
    match run_script env src with
    | Ok out -> Ok (Value.of_list out)
    | Error msg -> Error msg
  in
  if sid <> 0 then
    T.span_end sid
      ~attrs:
        [ ("steps", T.I env.Env.steps);
          ("ok", T.B (Result.is_ok result)) ];
  result

let eval_expression_ast env ~src ast =
  let ctx = { env; src } in
  eval_expr ctx ast

