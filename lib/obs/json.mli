(** A minimal JSON document model, printer, parser (RFC 8259), and the
    one set of typed readers every loader decodes through.

    No JSON library is vendored in this tool chain, and the documents
    it reads and writes — journals, perf snapshots, the solution-cache
    store, served request frames, Chrome traces — are small and
    regular, so this module keeps the dependency surface at zero.  The
    parser accepts full JSON (escapes, surrogate pairs, exponents); the
    printer escapes every control character, so any string is safe to
    embed.

    Loaders turn a parsed value into typed fields with {!field},
    {!field_or} and {!field_opt} over the {!reader}s below, so every
    document boundary applies the same rules: an int is a whole number
    a float holds exactly (never truncated), a float is finite, a field
    that is present but ill-typed is an error (never its default), and
    every error names the field. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-body escaping: quote, backslash, [\b \f \n \r \t],
    remaining control characters (and DEL) as [\uXXXX].  The result is
    what goes {e between} the quotes. *)

val to_string : ?indent:int -> t -> string
(** Serialise; [indent] > 0 pretty-prints with that many spaces per
    level (default compact). *)

val default_max_depth : int
(** 512 — generous for every document this tool chain produces. *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Parse a complete JSON document.  [max_depth] (default
    {!default_max_depth}) bounds container nesting: a document with more
    than [max_depth] nested arrays/objects returns [Error] instead of
    recursing without bound — the parser sits on the service's network
    boundary, where a hostile deeply-nested body must not overflow the
    stack. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_float : t -> float option
val to_str : t -> string option

(** {2 Typed readers}

    A reader's error says what it expected and quotes what it found;
    {!field} and the container readers prefix the field name or item
    index, so an error reads e.g.
    [field "members": item 2: integer in 0..9007199254740992 expected,
    got 2.5]. *)

type 'a reader = t -> ('a, string) result

val int : ?lo:int -> ?hi:int -> int reader
(** A whole number in [lo..hi], by default [-2^53..2^53] (the integers a
    float holds exactly).  A fraction is an error, never truncated. *)

val float : ?lo:float -> ?hi:float -> float reader
(** A finite number, within [lo] and [hi] when given. *)

val string : string reader
val bool : bool reader

val any : t reader
(** The value itself. *)

val nullable : 'a reader -> 'a option reader
(** [null] is [None]; anything else reads with the given reader. *)

val list : 'a reader -> 'a list reader
(** An array whose every item reads with the given reader. *)

val obj : 'a reader -> (string * 'a) list reader
(** An object whose every member reads with the given reader, in
    document order. *)

val field : string -> 'a reader -> 'a reader
(** A required field of an object. *)

val field_or : string -> default:'a -> 'a reader -> 'a reader
(** An absent field is [default]; a present one must read. *)

val field_opt : string -> 'a reader -> 'a option reader
(** An absent or [null] field is [None]; any other value must read. *)

val header : schema:string -> version:int -> unit reader
(** A versioned document's header: a ["schema"] string equal to
    [schema] and a ["version"] that is exactly the integer [version]
    (so [1.5] is rejected, not read as 1). *)
