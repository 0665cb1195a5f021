module type S = sig
  type t
  type buf

  val create : unit -> t
  val line : t -> int -> buf
  val head : t -> int -> buf
  val block : t -> int -> buf
  val tmp : t -> int -> buf
  val idx : t -> int -> int array
end

module Make (St : Storage.S) = struct
  type buf = St.t

  type t = {
    mutable line : buf;
    mutable head : buf;
    mutable block : buf;
    mutable tmp : buf;
    mutable idx : int array;
  }

  let create () =
    {
      line = St.create 0;
      head = St.create 0;
      block = St.create 0;
      tmp = St.create 0;
      idx = [||];
    }

  let line t len =
    if St.length t.line < len then t.line <- St.create len;
    t.line

  let head t len =
    if St.length t.head < len then t.head <- St.create len;
    t.head

  let block t len =
    if St.length t.block < len then t.block <- St.create len;
    t.block

  let tmp t len =
    if St.length t.tmp < len then t.tmp <- St.create len;
    t.tmp

  let idx t len =
    if Array.length t.idx < len then t.idx <- Array.make len 0;
    t.idx
end

module F64 = Make (Storage.Float64)
