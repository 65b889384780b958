type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Punct of string
  | Question
  | Eof

exception Lex_error of string

let keywords =
  [
    "select"; "from"; "where"; "insert"; "into"; "values"; "update"; "set";
    "delete"; "create"; "table"; "primary"; "key"; "and"; "or"; "not";
    "order"; "by"; "asc"; "desc"; "limit"; "join"; "inner"; "on"; "as";
    "null"; "int"; "float"; "string"; "varchar"; "text"; "count"; "sum";
    "min"; "max"; "avg"; "group"; "having"; "in"; "between"; "like";
    "distinct"; "index";
  ]

let is_keyword s = List.mem s keywords

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Ident (String.lowercase_ascii (String.sub input start (!i - start))))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      if !i < n && input.[!i] = '.' then begin
        incr i;
        while !i < n && is_digit input.[!i] do
          incr i
        done;
        emit (Float_lit (float_of_string (String.sub input start (!i - start))))
      end
      else
        let lit = String.sub input start (!i - start) in
        match int_of_string_opt lit with
        | Some n -> emit (Int_lit n)
        | None -> raise (Lex_error (Printf.sprintf "integer literal %s out of range" lit))
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !i >= n then raise (Lex_error "unterminated string literal");
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      emit (Str_lit (Buffer.contents buf))
    end
    else if c = '?' then begin
      emit Question;
      incr i
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub input !i 2) else None
      in
      match two with
      | Some (("<=" | ">=" | "<>" | "!=" | "||") as p) ->
        emit (Punct (if p = "!=" then "<>" else p));
        i := !i + 2
      | Some _ | None -> (
        match c with
        | '(' | ')' | ',' | '*' | '+' | '-' | '/' | '%' | '=' | '<' | '>'
        | '.' | ';' ->
          emit (Punct (String.make 1 c));
          incr i
        | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c)))
    end
  done;
  emit Eof;
  List.rev !tokens
