"""``python -m cremfan``: the ``cremfan`` script's entry point, ``cli.run``,
which ends the process by ``os._exit`` after the flushed report."""

from .cli import run

if __name__ == "__main__":
    run()
