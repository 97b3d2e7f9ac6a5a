type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;
  path : string list;
  message : string;
  subject : string option;
}

exception Fail of t

let make ?(path = []) ?subject severity ~code message =
  { severity; code; path; message; subject }

let makef ?path ?subject severity ~code fmt =
  Format.kasprintf (fun message -> make ?path ?subject severity ~code message) fmt

let error ?path ?subject ~code message = make ?path ?subject Error ~code message

let warning ?path ?subject ~code message = make ?path ?subject Warning ~code message

let info ?path ?subject ~code message = make ?path ?subject Info ~code message

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = List.compare String.compare a.path b.path in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c
      else
        let c = String.compare a.message b.message in
        if c <> 0 then c
        else Option.compare String.compare a.subject b.subject

let sort diags = List.sort_uniq compare diags

let is_error d = d.severity = Error

let has_errors diags = List.exists is_error diags

let count severity diags = List.length (List.filter (fun d -> d.severity = severity) diags)

let path_to_string = function [] -> "<root>" | path -> String.concat "/" path

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_to_string d.severity) d.code
    (path_to_string d.path) d.message

let to_string d = Format.asprintf "%a" pp d
