type kind =
  | Command
  | Command_argument
  | Command_parameter
  | Comment
  | Group_start
  | Group_end
  | Index_start
  | Index_end
  | Keyword
  | Line_continuation
  | Member
  | New_line
  | Number
  | Operator
  | Statement_separator
  | String_single
  | String_double
  | String_single_here
  | String_double_here
  | Type_name
  | Variable
  | Splat_variable

type t = {
  kind : kind;
  content : string;
  text : string;
  extent : Pscommon.Extent.t;
}

let kind_name = function
  | Command -> "Command"
  | Command_argument -> "CommandArgument"
  | Command_parameter -> "CommandParameter"
  | Comment -> "Comment"
  | Group_start -> "GroupStart"
  | Group_end -> "GroupEnd"
  | Index_start -> "IndexStart"
  | Index_end -> "IndexEnd"
  | Keyword -> "Keyword"
  | Line_continuation -> "LineContinuation"
  | Member -> "Member"
  | New_line -> "NewLine"
  | Number -> "Number"
  | Operator -> "Operator"
  | Statement_separator -> "StatementSeparator"
  | String_single -> "StringSingle"
  | String_double -> "StringDouble"
  | String_single_here -> "StringSingleHere"
  | String_double_here -> "StringDoubleHere"
  | Type_name -> "Type"
  | Variable -> "Variable"
  | Splat_variable -> "SplatVariable"

let pp fmt t =
  Format.fprintf fmt "%s%a %S" (kind_name t.kind) Pscommon.Extent.pp t.extent
    t.content

let is_string t =
  match t.kind with
  | String_single | String_double | String_single_here | String_double_here ->
      true
  | Command | Command_argument | Command_parameter | Comment | Group_start
  | Group_end | Index_start | Index_end | Keyword | Line_continuation | Member
  | New_line | Number | Operator | Statement_separator | Type_name | Variable
  | Splat_variable ->
      false
