import gc
import sys


def run():
    """The quditcs program: cli.main without the cyclic garbage collector.

    A call makes no cycles that grow with its work, so numpy imports with no
    collections, and every object is frozen before shutdown, whose full
    collections run even with the collector off but skip frozen objects
    (os._exit would also skip atexit handlers and unflushed buffers). The
    library and cli.main keep the collector.
    """
    gc.disable()
    from .cli import main

    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
