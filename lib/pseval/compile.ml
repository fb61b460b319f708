(** Closure compilation of recoverable pieces.

    The recovery fixpoint re-evaluates the same piece texts pass after pass
    (and, at batch scale, file after file).  {!Interp} walks the AST on
    every evaluation: each node re-dispatches on its constructor, re-lowers
    variable names, re-normalizes type names, and re-renders error texts.
    This module lowers a parsed piece {e once} into a tree of OCaml
    closures — operators pre-resolved, member names and error messages
    pre-rendered, constant subtrees pre-folded into shared immutable
    values — and running the piece just applies the closure tree to an
    environment.

    Fidelity contract: a compiled program is observationally identical to
    the AST walk.  Step accounting ({!Env.tick} per node, {!Env.tick_n}
    replaying folded subtrees), result size checks, short-circuit order,
    error message texts, chaos probe order ([interp.eval]) and the
    [interp.invoke_piece] telemetry span all match {!Interp.run_script} /
    {!Interp.invoke_piece} exactly — the deobfuscator's byte-identity and
    cache-ablation gates depend on it.  Every node shape the compiler does
    not specialize falls back to the interpreter for that subtree, so new
    AST forms degrade to the walker instead of miscompiling. *)

open Psvalue
module A = Psast.Ast
module Strcase = Pscommon.Strcase

type body = (Interp.ctx -> Value.t list, string) result
type program = { src : string; body : body }

let fail msg = raise (Env.Eval_error msg)

(* ---------- constant folding ---------- *)

(* A subtree is fold-eligible when it reads no variables and mutates
   nothing: its value and its step cost are then the same in every
   environment (the interpreter has no clocks or randomness — anything
   effectful raises [Env.Blocked] in the Recovery-mode scratch env and the
   fold is abandoned).  Only immutable scalar results are accepted; arrays
   and objects are mutable and must not be shared across runs. *)
let rec fold_eligible (t : A.t) =
  match t.A.node with
  | A.String_const _ | A.Number_const _ | A.Type_literal _ -> true
  | A.Expandable_string (_, parts) ->
      List.for_all (function A.Part_text _ -> true | _ -> false) parts
  | A.Binary_expr (_, _, a, b) -> fold_eligible a && fold_eligible b
  | A.Unary_expr ((A.Incr | A.Decr), _) | A.Postfix_expr _ -> false
  | A.Unary_expr (_, x) | A.Convert_expr (_, x) -> fold_eligible x
  | A.Member_access (obj, m, _) -> fold_eligible obj && member_eligible m
  | A.Invoke_member (obj, m, args, _) ->
      fold_eligible obj && member_eligible m && List.for_all fold_eligible args
  | A.Index_expr (a, b) -> fold_eligible a && fold_eligible b
  | A.Array_literal elems -> List.for_all fold_eligible elems
  | _ -> false

and member_eligible = function
  | A.Member_name _ -> true
  | A.Member_dynamic e -> fold_eligible e

let immutable_scalar = function
  | Value.Null | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _
  | Value.Char _ ->
      true
  | _ -> false

(* Evaluate a fold-eligible subtree in a scratch Recovery env and return
   its value plus the steps the walk consumed, so the compiled form can
   replay the exact step cost via [Env.tick_n].  Any exception — blocked
   effect, over-budget, cast error — abandons the fold; the structural
   compile below reproduces the failure at run time instead. *)
let try_fold src (t : A.t) =
  if not (fold_eligible t) then None
  else
    match
      let env = Env.create ~mode:Env.Recovery () in
      let v = Interp.eval_expression_ast env ~src t in
      (env.Env.steps, v)
    with
    | steps, v when immutable_scalar v -> Some (steps, v)
    | _ -> None
    | exception e -> (
        match e with
        | Stack_overflow | Out_of_memory -> None
        | _ when Interp.describe_exception e <> None -> None
        | Pscommon.Guard.Deadline_exceeded -> None
        | _ -> raise e)

(* ---------- expression compilation ---------- *)

(* [compile_expr] mirrors [Interp.eval_expr]: one step tick, the node
   computation, one result size check.  [compile_expr_spec] returns the
   node computation (the [eval_expr_unchecked] body) when the shape is
   specialized, [None] to defer the whole subtree to the walker. *)
let rec compile_expr src (t : A.t) : Interp.ctx -> Value.t =
  match try_fold src t with
  | Some (steps, v) ->
      fun ctx ->
        Env.tick_n ctx.Interp.env steps;
        Env.check_size ctx.Interp.env v;
        v
  | None -> (
      match compile_expr_spec src t with
      | Some f ->
          fun ctx ->
            Env.tick ctx.Interp.env;
            let v = f ctx in
            Env.check_size ctx.Interp.env v;
            v
      | None -> fun ctx -> Interp.eval_expr ctx t)

and compile_expr_spec src (t : A.t) : (Interp.ctx -> Value.t) option =
  match t.A.node with
  | A.String_const (s, _) ->
      let v = Value.Str s in
      Some (fun _ -> v)
  | A.Number_const (A.Int_lit n) ->
      let v = Value.Int n in
      Some (fun _ -> v)
  | A.Number_const (A.Float_lit f) ->
      let v = Value.Float f in
      Some (fun _ -> v)
  | A.Expandable_string (_, parts) ->
      let cparts =
        List.map
          (fun part ->
            match part with
            | A.Part_text s -> fun _ buf -> Buffer.add_string buf s
            | A.Part_variable (v, _) ->
                let name = v.A.var_name in
                fun ctx buf ->
                  Buffer.add_string buf
                    (Value.to_string (Interp.read_variable ctx name))
            | A.Part_subexpr e ->
                let ce = compile_expr src e in
                fun ctx buf -> Buffer.add_string buf (Value.to_string (ce ctx)))
          parts
      in
      Some
        (fun ctx ->
          let buf = Buffer.create 32 in
          List.iter (fun f -> f ctx buf) cparts;
          Value.Str (Buffer.contents buf))
  | A.Variable_expr v -> (
      let name = v.A.var_name in
      match Strcase.lower name with
      | "args" ->
          Some
            (fun ctx ->
              match Env.get_var ctx.Interp.env "args" with
              | Some v -> v
              | None -> Value.Arr [||])
      | "input" ->
          Some
            (fun ctx ->
              match Env.get_var ctx.Interp.env "input" with
              | Some v -> v
              | None -> Value.Arr [||])
      | "ofs" -> Some (fun _ -> Value.Str " ")
      | _ ->
          let undefined = Printf.sprintf "undefined variable $%s" name in
          Some
            (fun ctx ->
              match Env.get_var ctx.Interp.env name with
              | Some v -> v
              | None -> (
                  match ctx.Interp.env.Env.mode with
                  | Env.Recovery -> fail undefined
                  | Env.Sandbox -> Value.Null)))
  | A.Binary_expr (op, sensitivity, a, b) -> compile_binary src op sensitivity a b
  | A.Unary_expr (op, operand) -> compile_unary src op operand
  | A.Postfix_expr (op, operand) -> (
      let delta = match op with A.Incr -> 1 | _ -> -1 in
      match operand.A.node with
      | A.Variable_expr v ->
          let name = v.A.var_name in
          Some
            (fun ctx ->
              let old =
                try Value.to_int (Interp.read_variable ctx name) with _ -> 0
              in
              Env.set_var ctx.Interp.env name (Value.Int (old + delta));
              Value.Int old)
      | _ -> Some (fun _ -> fail "++/-- requires a variable"))
  | A.Convert_expr (type_name, inner) -> (
      let ci = compile_expr src inner in
      match Casts.normalize_type type_name with
      | "io.compression.deflatestream" | "io.streamreader" ->
          Some (fun ctx -> Interp.construct_object ctx type_name [ ci ctx ])
      | _ -> Some (fun ctx -> Casts.cast type_name (ci ctx)))
  | A.Type_literal name ->
      let v =
        Value.Obj
          { Value.otype = Interp.type_display_name name; okind = Value.Generic }
      in
      Some (fun _ -> v)
  | A.Member_access (obj, member, static) ->
      let cname = compile_member_name src member in
      let whole_txt = lazy (String.trim (A.text src t)) in
      if static then
        match obj.A.node with
        | A.Type_literal type_name ->
            Some
              (fun ctx ->
                let name = cname ctx in
                match Statics.get_static type_name name with
                | Some v -> v
                | None ->
                    fail
                      (Printf.sprintf "unknown static member [%s]::%s" type_name
                         name))
        | _ ->
            Some
              (fun ctx ->
                ignore (cname ctx);
                fail "static member access requires a type literal")
      else
        let cobj = compile_expr src obj in
        Some
          (fun ctx ->
            let name = cname ctx in
            let v = cobj ctx in
            match Members.get_property v name with
            | Some result -> result
            | None -> (
                match Strcase.lower name with
                | "length" | "count" -> Value.Int 1
                | _ -> (
                    match ctx.Interp.env.Env.mode with
                    | Env.Recovery ->
                        fail
                          (Printf.sprintf "unknown property '%s' on %s (%s)"
                             name (Value.type_name v) (Lazy.force whole_txt))
                    | Env.Sandbox -> Value.Null)))
  | A.Invoke_member (obj, member, args, static) ->
      let cname = compile_member_name src member in
      let cargs = List.map (compile_expr src) args in
      let whole_txt = lazy (String.trim (A.text src t)) in
      if static then
        match obj.A.node with
        | A.Type_literal type_name ->
            Some
              (fun ctx ->
                let name = cname ctx in
                let arg_values = List.map (fun f -> f ctx) cargs in
                match
                  Statics.invoke_static ctx.Interp.env type_name name arg_values
                with
                | Some v -> v
                | None ->
                    fail
                      (Printf.sprintf "unknown static method [%s]::%s" type_name
                         name))
        | _ ->
            Some
              (fun ctx ->
                ignore (cname ctx);
                ignore (List.map (fun f -> f ctx) cargs);
                fail "static method call requires a type literal")
      else
        let cobj = compile_expr src obj in
        Some
          (fun ctx ->
            let name = cname ctx in
            let arg_values = List.map (fun f -> f ctx) cargs in
            let v = cobj ctx in
            match (v, Strcase.lower name) with
            | Value.Script_block sb, ("invoke" | "invokereturnasis") ->
                Value.of_list
                  (Interp.invoke_script_block ctx sb arg_values ~input:[])
            | _ -> (
                match Members.invoke_method ctx.Interp.env v name arg_values with
                | Some result -> result
                | None -> (
                    match ctx.Interp.env.Env.mode with
                    | Env.Recovery ->
                        fail
                          (Printf.sprintf "unknown method '%s' on %s (%s)" name
                             (Value.type_name v) (Lazy.force whole_txt))
                    | Env.Sandbox -> Value.Null)))
  | A.Index_expr (obj, idx) ->
      let cobj = compile_expr src obj and cidx = compile_expr src idx in
      Some
        (fun ctx ->
          let container = cobj ctx in
          let index = cidx ctx in
          Ops.index_value container index)
  | A.Array_literal elems ->
      let cs = List.map (compile_expr src) elems in
      Some (fun ctx -> Value.Arr (Array.of_list (List.map (fun f -> f ctx) cs)))
  | A.Array_expr stmts ->
      let cs = compile_stmts src stmts in
      Some (fun ctx -> Value.Arr (Array.of_list (cs ctx)))
  | A.Hash_literal pairs ->
      let cs =
        List.map
          (fun (k, v) -> (compile_expr src k, compile_stmt src v))
          pairs
      in
      Some
        (fun ctx ->
          Value.Hash
            (List.map
               (fun (ck, cv) ->
                 let key = ck ctx in
                 let value = Value.of_list (cv ctx) in
                 (key, value))
               cs))
  | A.Sub_expr stmts ->
      let cs = compile_stmts src stmts in
      Some (fun ctx -> Value.of_list (cs ctx))
  | A.Paren_expr stmt -> (
      match stmt.A.node with
      | A.Assignment (_, lhs, _) ->
          let cstmt = compile_stmt src stmt in
          let clhs = compile_expr src lhs in
          Some
            (fun ctx ->
              ignore (cstmt ctx);
              clhs ctx)
      | _ ->
          let cstmt = compile_stmt src stmt in
          Some (fun ctx -> Value.of_list (cstmt ctx)))
  | A.Script_block_expr sb ->
      let v =
        Value.Script_block
          { Value.sb_ast = sb; sb_text = Interp.strip_braces (A.text src t) }
      in
      Some (fun _ -> v)
  | A.Pipeline _ | A.Command _ | A.Command_expression _ ->
      let cstmt = compile_stmt src t in
      Some (fun ctx -> Value.of_list (cstmt ctx))
  | _ ->
      let msg =
        Printf.sprintf "cannot evaluate %s as an expression" (A.kind_name t)
      in
      Some (fun _ -> fail msg)

and compile_member_name src member : Interp.ctx -> string =
  match member with
  | A.Member_name n -> fun _ -> n
  | A.Member_dynamic e ->
      let ce = compile_expr src e in
      fun ctx -> Value.to_string (ce ctx)

and compile_binary src op sensitivity a b =
  match op with
  | A.And_op ->
      let ca = compile_expr src a and cb = compile_expr src b in
      Some
        (fun ctx ->
          let va = ca ctx in
          if not (Value.to_bool va) then Value.Bool false
          else Ops.logical A.And_op va (cb ctx))
  | A.Or_op ->
      let ca = compile_expr src a and cb = compile_expr src b in
      Some
        (fun ctx ->
          let va = ca ctx in
          if Value.to_bool va then Value.Bool true
          else Ops.logical A.Or_op va (cb ctx))
  | A.Isnot ->
      (* -isnot re-evaluates both operands through the -is path; the walker
         already implements that double evaluation exactly *)
      None
  | _ ->
      let ca = compile_expr src a and cb = compile_expr src b in
      let apply : Interp.ctx -> Value.t -> Value.t -> Value.t =
        match op with
        | A.Add -> fun _ va vb -> Ops.add va vb
        | A.Sub -> fun _ va vb -> Ops.subtract va vb
        | A.Mul -> fun _ va vb -> Ops.multiply va vb
        | A.Div -> fun _ va vb -> Ops.divide va vb
        | A.Mod -> fun _ va vb -> Ops.modulo va vb
        | A.Format ->
            fun _ va vb ->
              Value.Str (Format_op.format (Value.to_string va) (Value.to_list vb))
        | A.Range ->
            fun ctx va vb ->
              Ops.range ctx.Interp.env.Env.limits.Env.max_collection va vb
        | A.Eq | A.Ne | A.Gt | A.Ge | A.Lt | A.Le | A.Like | A.Notlike
        | A.Match | A.Notmatch ->
            fun _ va vb -> Ops.comparison op sensitivity va vb
        | A.Replace -> fun _ va vb -> Ops.replace_op sensitivity va vb
        | A.Split -> fun _ va vb -> Ops.split_op sensitivity va vb
        | A.Join -> fun _ va vb -> Ops.join_op va vb
        | A.Contains ->
            let case_sensitive = sensitivity = Some true in
            fun _ va vb -> Ops.contains_op ~case_sensitive ~negate:false va vb
        | A.Notcontains ->
            let case_sensitive = sensitivity = Some true in
            fun _ va vb -> Ops.contains_op ~case_sensitive ~negate:true va vb
        | A.In_op ->
            let case_sensitive = sensitivity = Some true in
            fun _ va vb -> Ops.in_op ~case_sensitive ~negate:false va vb
        | A.Notin ->
            let case_sensitive = sensitivity = Some true in
            fun _ va vb -> Ops.in_op ~case_sensitive ~negate:true va vb
        | A.Is_op -> (
            fun _ va vb ->
              match vb with
              | Value.Obj { Value.otype; _ } ->
                  Value.Bool (Ops.type_matches otype va)
              | v -> Value.Bool (Ops.type_matches (Value.to_string v) va))
        | A.As_op -> (
            fun _ va vb ->
              match vb with
              | Value.Obj { Value.otype; _ } -> (
                  try Casts.cast otype va with Casts.Cast_error _ -> Value.Null)
              | v -> (
                  try Casts.cast (Value.to_string v) va
                  with Casts.Cast_error _ -> Value.Null))
        | A.Band | A.Bor | A.Bxor | A.Shl | A.Shr ->
            fun _ va vb -> Ops.bitwise op va vb
        | A.And_op | A.Or_op | A.Xor_op | A.Isnot ->
            fun _ va vb -> Ops.logical op va vb
      in
      Some
        (fun ctx ->
          let va = ca ctx in
          let vb = cb ctx in
          apply ctx va vb)

and compile_unary src op operand =
  match op with
  | A.Incr | A.Decr -> (
      let delta = match op with A.Incr -> 1 | _ -> -1 in
      match operand.A.node with
      | A.Variable_expr v ->
          let name = v.A.var_name in
          Some
            (fun ctx ->
              let old =
                try Value.to_int (Interp.read_variable ctx name) with _ -> 0
              in
              Env.set_var ctx.Interp.env name (Value.Int (old + delta));
              Value.Int (old + delta))
      | _ -> Some (fun _ -> fail "++/-- requires a variable"))
  | _ ->
      let co = compile_expr src operand in
      let apply =
        match op with
        | A.Not -> fun v -> Value.Bool (not (Value.to_bool v))
        | A.Negate -> (
            function
            | Value.Int n -> Value.Int (-n)
            | Value.Float f -> Value.Float (-.f)
            | v -> Value.Int (-(Value.to_int v)))
        | A.Unary_plus -> (
            function
            | Value.Int n -> Value.Int n
            | Value.Float f -> Value.Float f
            | v -> Value.Int (Value.to_int v))
        | A.Bnot -> fun v -> Value.Int (lnot (Value.to_int v))
        | A.Ujoin -> Ops.unary_join
        | A.Usplit -> Ops.unary_split
        | A.Incr | A.Decr -> fun _ -> fail "++/-- requires a variable"
      in
      Some (fun ctx -> apply (co ctx))

(* ---------- statement compilation ---------- *)

and compile_stmts src stmts : Interp.ctx -> Value.t list =
  match List.map (compile_stmt src) stmts with
  | [ c ] -> c
  | cs -> fun ctx -> List.concat_map (fun f -> f ctx) cs

and compile_stmt src (t : A.t) : Interp.ctx -> Value.t list =
  match compile_stmt_spec src t with
  | Some f ->
      fun ctx ->
        Env.tick ctx.Interp.env;
        f ctx
  | None -> fun ctx -> Interp.eval_statement ctx t

and bind_param_defaults env names =
  List.iter
    (fun n ->
      match Env.get_var env n with
      | Some _ -> ()
      | None -> Env.set_var env n Value.Null)
    names

and compile_stmt_spec src (t : A.t) : (Interp.ctx -> Value.t list) option =
  match t.A.node with
  | A.Script_block sb ->
      let params = sb.A.sb_params in
      let cs = compile_stmts src sb.A.sb_statements in
      Some
        (fun ctx ->
          bind_param_defaults ctx.Interp.env params;
          cs ctx)
  | A.Named_block (_, body) ->
      let cbody = compile_stmt src body in
      Some cbody
  | A.Statement_block stmts ->
      let cs = compile_stmts src stmts in
      Some cs
  | A.Pipeline
      [ { A.node =
            A.Command_expression
              { A.node =
                  A.Postfix_expr ((A.Incr | A.Decr), _)
                | A.Unary_expr ((A.Incr | A.Decr), _);
                _ };
          _ } as elem ] ->
      let ce =
        match elem.A.node with
        | A.Command_expression e -> compile_expr src e
        | _ -> assert false
      in
      Some
        (fun ctx ->
          ignore (Value.to_list (ce ctx));
          [])
  | A.Pipeline elems
    when List.for_all
           (fun e -> match e.A.node with A.Command _ -> false | _ -> true)
           elems ->
      let stages =
        List.map
          (fun e ->
            match e.A.node with
            | A.Command_expression inner -> compile_expr src inner
            | _ -> compile_expr src e)
          elems
      in
      let rec run ctx input = function
        | [] -> input
        | f :: rest -> run ctx (Value.to_list (f ctx)) rest
      in
      Some (fun ctx -> run ctx [] stages)
  | A.Assignment (op, lhs, rhs) -> (
      let crhs = compile_stmt src rhs in
      let combined =
        match op with
        | A.Assign -> fun _ rhs_value -> rhs_value
        | A.Plus_assign -> Ops.add
        | A.Minus_assign -> Ops.subtract
        | A.Times_assign -> Ops.multiply
        | A.Div_assign -> Ops.divide
        | A.Mod_assign -> Ops.modulo
      in
      match lhs.A.node with
      | A.Variable_expr v ->
          let name = v.A.var_name in
          Some
            (fun ctx ->
              let rhs_value = Value.of_list (crhs ctx) in
              let current =
                if op = A.Assign then Value.Null
                else
                  match Env.get_var ctx.Interp.env name with
                  | Some x -> x
                  | None -> Value.Null
              in
              Env.set_var ctx.Interp.env name (combined current rhs_value);
              [])
      | A.Convert_expr (type_name, { A.node = A.Variable_expr v; _ }) ->
          let name = v.A.var_name in
          Some
            (fun ctx ->
              let rhs_value = Value.of_list (crhs ctx) in
              Env.set_var ctx.Interp.env name (Casts.cast type_name rhs_value);
              [])
      | _ -> None)
  | A.If_stmt (clauses, else_branch) ->
      let cclauses =
        List.map
          (fun (cond, body) -> (compile_stmt src cond, compile_stmt src body))
          clauses
      in
      let celse = Option.map (compile_stmt src) else_branch in
      Some
        (fun ctx ->
          let rec try_clauses = function
            | [] -> ( match celse with Some b -> b ctx | None -> [])
            | (ccond, cbody) :: rest ->
                if Value.to_bool (Value.of_list (ccond ctx)) then cbody ctx
                else try_clauses rest
          in
          try_clauses cclauses)
  | A.While_stmt (cond, body) ->
      let ccond = compile_stmt src cond and cbody = compile_stmt src body in
      Some
        (fun ctx ->
          let out = ref [] in
          (try
             while Value.to_bool (Value.of_list (ccond ctx)) do
               Env.tick ctx.Interp.env;
               try Interp.collect out (cbody ctx)
               with Interp.Continue_exc -> ()
             done
           with Interp.Break_exc -> ());
          List.rev !out)
  | A.Do_while_stmt (body, cond) ->
      let cbody = compile_stmt src body and ccond = compile_stmt src cond in
      Some
        (fun ctx ->
          let out = ref [] in
          (try
             let continue = ref true in
             while !continue do
               Env.tick ctx.Interp.env;
               (try Interp.collect out (cbody ctx)
                with Interp.Continue_exc -> ());
               continue := Value.to_bool (Value.of_list (ccond ctx))
             done
           with Interp.Break_exc -> ());
          List.rev !out)
  | A.Do_until_stmt (body, cond) ->
      let cbody = compile_stmt src body and ccond = compile_stmt src cond in
      Some
        (fun ctx ->
          let out = ref [] in
          (try
             let continue = ref true in
             while !continue do
               Env.tick ctx.Interp.env;
               (try Interp.collect out (cbody ctx)
                with Interp.Continue_exc -> ());
               continue := not (Value.to_bool (Value.of_list (ccond ctx)))
             done
           with Interp.Break_exc -> ());
          List.rev !out)
  | A.For_stmt (init, cond, step, body) ->
      let cinit = Option.map (compile_stmt src) init in
      let ccond = Option.map (compile_stmt src) cond in
      let cstep = Option.map (compile_stmt src) step in
      let cbody = compile_stmt src body in
      Some
        (fun ctx ->
          (match cinit with Some s -> ignore (s ctx) | None -> ());
          let out = ref [] in
          (try
             let check () =
               match ccond with
               | Some c -> Value.to_bool (Value.of_list (c ctx))
               | None -> true
             in
             while check () do
               Env.tick ctx.Interp.env;
               (try Interp.collect out (cbody ctx)
                with Interp.Continue_exc -> ());
               match cstep with Some s -> ignore (s ctx) | None -> ()
             done
           with Interp.Break_exc -> ());
          List.rev !out)
  | A.Foreach_stmt (var, coll, body) -> (
      match var.A.node with
      | A.Variable_expr v ->
          let name = v.A.var_name in
          let ccoll = compile_stmt src coll and cbody = compile_stmt src body in
          Some
            (fun ctx ->
              let items = Value.to_list (Value.of_list (ccoll ctx)) in
              let out = ref [] in
              (try
                 List.iter
                   (fun item ->
                     Env.tick ctx.Interp.env;
                     Env.set_var ctx.Interp.env name item;
                     try Interp.collect out (cbody ctx)
                     with Interp.Continue_exc -> ())
                   items
               with Interp.Break_exc -> ());
              List.rev !out)
      | _ -> None)
  | A.Function_def (name, params, body) ->
      let fn = { Env.fn_params = params; fn_body = body } in
      Some
        (fun ctx ->
          Env.define_function ctx.Interp.env name fn;
          [])
  | A.Param_block names ->
      Some
        (fun ctx ->
          bind_param_defaults ctx.Interp.env names;
          [])
  | A.Return_stmt value ->
      let cv = Option.map (compile_stmt src) value in
      Some
        (fun ctx ->
          let out = match cv with Some v -> v ctx | None -> [] in
          raise (Interp.Return_exc out))
  | A.Break_stmt -> Some (fun _ -> raise Interp.Break_exc)
  | A.Continue_stmt -> Some (fun _ -> raise Interp.Continue_exc)
  | A.Throw_stmt value ->
      let cv = Option.map (compile_stmt src) value in
      Some
        (fun ctx ->
          let v =
            match cv with
            | Some e -> Value.of_list (e ctx)
            | None -> Value.Str "ScriptHalted"
          in
          raise (Interp.Throw_exc v))
  | A.Exit_stmt _ -> Some (fun _ -> raise Interp.Exit_exc)
  | A.Try_stmt (body, catches, finally) ->
      let cbody = compile_stmt src body in
      let ccatch =
        match catches with
        | (_, handler) :: _ -> Some (compile_stmt src handler)
        | [] -> None
      in
      let cfin = Option.map (compile_stmt src) finally in
      let has_catch = catches <> [] in
      Some
        (fun ctx ->
          let run_finally () =
            match cfin with Some f -> ignore (f ctx) | None -> ()
          in
          let run_catch () =
            Env.set_var ctx.Interp.env "_" Value.Null;
            match ccatch with Some h -> h ctx | None -> []
          in
          let result =
            try cbody ctx with
            | Interp.Throw_exc _ when has_catch -> run_catch ()
            | Env.Eval_error _ when has_catch -> run_catch ()
            | Ops.Op_error _ when has_catch -> run_catch ()
            | Value.Conversion_error _ when has_catch -> run_catch ()
          in
          run_finally ();
          result)
  | A.Trap_stmt _ -> Some (fun _ -> [])
  | A.Command_expression e ->
      let ce = compile_expr src e in
      Some (fun ctx -> Value.to_list (ce ctx))
  | A.Postfix_expr ((A.Incr | A.Decr), _) | A.Unary_expr ((A.Incr | A.Decr), _)
    ->
      let ce = compile_expr src t in
      Some
        (fun ctx ->
          ignore (ce ctx);
          [])
  | A.Pipeline _ | A.Command _ | A.Switch_stmt _ ->
      (* command dispatch (builtins, user functions, redirections) keeps
         too much interpreter state to be worth specializing — defer *)
      None
  | _ ->
      (* expression in statement position *)
      let ce = compile_expr src t in
      Some (fun ctx -> Value.to_list (ce ctx))

(* ---------- entry points ---------- *)

let parse_error_message (e : Psparse.Parser.error) =
  Printf.sprintf "syntax error at %d: %s" e.Psparse.Parser.position
    e.Psparse.Parser.message

let compile src =
  match Psparse.Parser.parse src with
  | exception Stack_overflow -> { src; body = Error "stack exhausted while parsing" }
  | Error e -> { src; body = Error (parse_error_message e) }
  | Ok ast ->
      let body =
        (* compilation itself must never take a program down: a blow-up
           while lowering (deep AST, fold hitting the ambient deadline at
           an awkward point) degrades to the plain walker *)
        try compile_stmt src ast
        with _ -> fun ctx -> Interp.eval_statement ctx ast
      in
      { src; body = Ok body }

let source p = p.src

(* Mirrors [Interp.run_script] observably: the [interp.eval] chaos probe
   fires first and its injected faults propagate uncaught; the stored
   parse error (if any) is returned after the probe, exactly where the
   walker's parse would have failed. *)
let run_script env p =
  Pscommon.Chaos.probe "interp.eval";
  match p.body with
  | Error msg -> Error msg
  | Ok f -> (
      let ctx = { Interp.env; src = p.src } in
      match
        try f ctx with
        | Interp.Return_exc out -> out
        | Interp.Exit_exc -> []
      with
      | out -> Ok out
      | exception Interp.Throw_exc v ->
          Error ("uncaught throw: " ^ Value.to_string v)
      | exception e -> (
          match Interp.describe_exception e with
          | Some msg -> Error msg
          | None -> raise e))

(* Mirrors [Interp.invoke_piece]: same span name, attributes, and the
   span-left-open behavior when a foreign exception escapes. *)
let run env p =
  let module T = Pscommon.Telemetry in
  let sid =
    if T.active () then
      T.span_begin "interp.invoke_piece"
        ~attrs:
          [ ("depth", T.I env.Env.invoke_depth);
            ("bytes", T.I (String.length p.src)) ]
    else 0
  in
  let result =
    match run_script env p with
    | Ok out -> Ok (Value.of_list out)
    | Error msg -> Error msg
  in
  if sid <> 0 then
    T.span_end sid
      ~attrs:
        [ ("steps", T.I env.Env.steps); ("ok", T.B (Result.is_ok result)) ];
  result
