let default_now_ns () = Int64.to_float (Monotonic_clock.now ())

let source = Atomic.make default_now_ns

let install f = Atomic.set source f

let reset () = Atomic.set source default_now_ns

let now_ns () = (Atomic.get source) ()
